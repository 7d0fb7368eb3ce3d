// main.cpp - Command-line entry of the benchmark binary.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--reference PATH] [--write-reference PATH] [--setup-only]
//
// Prints human-readable lines, a "provenance {...}" line and, last, a
// "RESULT {...}" line that perfbench/run.py turns into the benchmark's
// final JSON. --setup-only stops right before the first world would be
// dispatched (run.py's set-up probes). Exit status: 0 after a run (failed
// worlds are reported, not fatal), 2 on bad usage or a non-Release build.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <optional>
#include <string>
#include <thread>

#include "harness.hpp"
#include "util/parallel.hpp"

namespace {

using namespace perfbench;

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(std::max(CPU_COUNT(&set), 1));
  }
  return std::max(std::thread::hardware_concurrency(), 1U);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

struct Cli {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string reference;
  std::string write_reference;
  bool setup_only = false;
};

Cli parse(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      cli.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      cli.workload = value;
    } else if (flag == "--seed") {
      cli.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      cli.seconds = std::stod(value);
    } else if (flag == "--trace") {
      cli.trace = value != "0";
    } else if (flag == "--reference") {
      cli.reference = value;
    } else if (flag == "--write-reference") {
      cli.write_reference = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (cli.workload.empty()) throw std::invalid_argument("--workload missing");
  return cli;
}

int run(int argc, char** argv) {
  // Numbers from an unoptimized or assert-enabled build are not comparable
  // with anything; refuse to produce them.
#ifndef NDEBUG
  const bool asserts = true;
#else
  const bool asserts = false;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0 || asserts) {
    std::fprintf(stderr,
                 "perfbench: refusing to run a non-Release build (%s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  const Cli cli = parse(argc, argv);
  const WorkloadSpec& spec = find_workload(cli.workload);
  const unsigned cores = nproc();
  Options options;
  options.seed = cli.seed;
  options.seconds = cli.seconds;
  options.trace = cli.trace || !cli.write_reference.empty();
  options.threads = std::min(4U, cores);

  // Set-up: spin up the worker pool, load the reference digests.
  ecs::parallel_for(options.threads, [](std::size_t) {}, options.threads);
  std::optional<Reference> reference;
  if (!cli.reference.empty()) {
    reference = read_reference(cli.reference);
    options.reference = &*reference;
  }
  if (cli.setup_only) {
    std::printf("RESULT {\"first_dispatch_ns\": %llu}\n",
                static_cast<unsigned long long>(steady_ns()));
    return 0;
  }

  std::printf(
      "provenance {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"params\": %s, \"threads\": %u, \"nproc\": %u, "
      "\"compiler\": %s, \"build_type\": %s, \"flags\": %s}\n",
      json_string(spec.name).c_str(),
      static_cast<unsigned long long>(cli.seed),
      json_number(cli.seconds).c_str(), options.trace ? 1 : 0,
      spec.describe().c_str(), options.threads, cores,
      json_string(PERFBENCH_COMPILER).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(PERFBENCH_FLAGS).c_str());
  std::fflush(stdout);

  const Outcome outcome = run_workload(spec, options);

  if (!cli.write_reference.empty()) {
    write_reference(cli.write_reference, Reference{cli.seed, outcome.round0});
    std::printf("wrote %zu reference digests to %s\n", outcome.round0.size(),
                cli.write_reference.c_str());
  }
  for (const std::string& problem : outcome.problems) {
    std::printf("FAILED %s\n", problem.c_str());
  }
  if (options.trace) {
    const double delta = outcome.traced_jobs_per_s - outcome.jobs_per_s;
    std::printf(
        "tracing_overhead %s: jobs_per_s untraced %.1f traced %.1f "
        "delta %.1f jobs/s (%+.1f%%)\n",
        spec.name.c_str(), outcome.jobs_per_s, outcome.traced_jobs_per_s,
        delta, outcome.jobs_per_s > 0 ? 100.0 * delta / outcome.jobs_per_s
                                      : 0.0);
  }
  std::string problems = "[";
  for (std::size_t i = 0; i < outcome.problems.size(); ++i) {
    problems += (i ? ", " : "") + json_string(outcome.problems[i]);
  }
  problems += "]";
  std::printf(
      "RESULT {\"attempted\": %llu, \"failed\": %llu, \"rounds\": %llu, "
      "\"first_dispatch_ns\": %llu, \"traced_jobs_per_s\": %s, "
      "\"problems\": %s, \"end_to_end\": %s, \"per_layer\": %s}\n",
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.failed),
      static_cast<unsigned long long>(outcome.rounds),
      static_cast<unsigned long long>(outcome.first_dispatch_ns),
      json_number(outcome.traced_jobs_per_s).c_str(), problems.c_str(),
      metrics_json(outcome.end_to_end).c_str(),
      metrics_json(outcome.per_layer).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
}
