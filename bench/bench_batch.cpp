// bench_batch.cpp - Sweep throughput of run_sweep_point, the many-worlds
// batch driver (not a paper figure; tracks the substrate's performance).
//
// The workload is a paper-style random scenario at sweep scale: many small
// replications, where the driver's fixed per-world costs (engine reuse,
// world recycling, the rep-0 validation) show against the simulation
// itself.
//
// Flags (besides the usual google-benchmark ones):
//   --json-out=PATH      compact JSON summary (one row per benchmark)
//
// CI runs a small-N variant and gates the per-world times against
// bench/BENCH_batch_baseline.json via tools/check_bench_regression.py.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_micro_common.hpp"

#include "exp/sweep.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "workloads/random_instances.hpp"

namespace {

/// Allocation-light policies on short worlds: the driver's fixed per-run
/// costs are the object under measurement. With expensive policies
/// (ssf-edf's search) or big instances the simulation itself dominates —
/// see DESIGN.md section 7 for the measured breakdown.
const std::vector<std::string> kPolicies = {"edge-only", "greedy",
                                            "srpt"};

ecs::Instance sweep_instance(std::uint64_t seed) {
  ecs::RandomInstanceConfig cfg;
  cfg.n = 30;  // short worlds: the regime where driver overhead shows
  cfg.cloud_count = 4;
  cfg.slow_edges = 3;
  cfg.fast_edges = 3;
  cfg.ccr = 1.0;
  cfg.load = 0.1;
  ecs::Rng rng(seed);
  return make_random_instance(cfg, rng);
}

void sweep_batch(benchmark::State& state) {
  const int reps = static_cast<int>(state.range(0));
  ecs::SweepOptions options;
  options.replications = reps;
  options.point_index = 0;
  // Validation on: rep 0 of each policy records + validates, exactly what
  // the figure binaries do. Threads at the default (hardware concurrency).
  options.validate_first = true;
  double max_stretch = 0.0;
  for (auto _ : state) {
    const ecs::SweepPointResult result = ecs::run_sweep_point(
        "point", [](std::uint64_t seed) { return sweep_instance(seed); },
        kPolicies, options);
    max_stretch = result.per_policy.front().max_stretch.mean();
    benchmark::DoNotOptimize(max_stretch);
  }
  const auto worlds =
      static_cast<double>(reps) * static_cast<double>(kPolicies.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(worlds) *
                          state.iterations());
  state.counters["worlds_per_s"] = benchmark::Counter(
      worlds, benchmark::Counter::kIsIterationInvariantRate);
}

// UseRealTime: the driver is internally multi-threaded, so wall time is
// the meaningful quantity.
BENCHMARK(sweep_batch)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  ecs::bench::apply_log_level_argv(argc, argv);
  const std::string json_path = ecs::bench::extract_json_out(argc, argv);
  ecs::bench::CompactJsonReporter reporter("worlds_per_s", "per_world_ns");
  return ecs::bench::run_micro_benchmarks(argc, argv, json_path, reporter);
}
