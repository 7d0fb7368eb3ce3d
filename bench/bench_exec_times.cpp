// bench_exec_times.cpp - Reproduces the paper's "Execution times"
// measurements (section VI-B) with google-benchmark.
//
// The paper reports the wall time each heuristic needs to compute its
// schedule: SRPT is much faster than SSF-EDF and Edge-Only; Greedy matches
// SRPT at low load but degrades sharply as the load grows; times increase
// with n and the load but stay flat in the CCR.
//
// Each benchmark simulates one full instance (scheduling + engine) for the
// given (policy, n, load) combination on random instances with CCR = 1.
// Two rows per policy: `<policy>` runs the optimized policy (src/sched/),
// `<policy>_ref` the frozen reference implementation
// (tests/reference_policies.hpp), whose cost model is the paper's: Greedy
// and SRPT re-evaluate every (job, resource) option on every pick, so the
// reference rows carry the paper's "Greedy degrades sharply with load"
// shape. Both produce the same schedules (test_policy_equivalence).
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "bench_common.hpp"
#include "exp/runner.hpp"
#include "reference_policies.hpp"
#include "sched/factory.hpp"
#include "util/rng.hpp"
#include "workloads/random_instances.hpp"

namespace {

ecs::Instance make_instance(int n, double load, std::uint64_t seed) {
  ecs::RandomInstanceConfig cfg;
  cfg.n = n;
  cfg.ccr = 1.0;
  cfg.load = load;
  ecs::Rng rng(seed);
  return make_random_instance(cfg, rng);
}

void run_policy_bench(benchmark::State& state, const std::string& policy,
                      bool use_ref) {
  const int n = static_cast<int>(state.range(0));
  const double load = static_cast<double>(state.range(1)) / 100.0;
  const ecs::Instance instance = make_instance(n, load, 42);
  double max_stretch = 0.0;
  for (auto _ : state) {
    const std::unique_ptr<ecs::Policy> scheduler =
        use_ref ? ecs::ref::make_reference_policy(policy)
                : ecs::make_policy(policy);
    ecs::RunOptions options;
    options.validate = false;
    const ecs::RunOutcome outcome =
        ecs::run_policy(instance, *scheduler, options);
    max_stretch = outcome.metrics.max_stretch;
    benchmark::DoNotOptimize(max_stretch);
  }
  state.counters["max_stretch"] = max_stretch;
  state.counters["jobs_per_s"] = benchmark::Counter(
      static_cast<double>(n), benchmark::Counter::kIsIterationInvariantRate);
}

void args_grid(benchmark::internal::Benchmark* bench) {
  // (n, load * 100). Loads 0.05 and 0.5 bracket the paper's range without
  // making the default suite run for minutes.
  for (const int n : {500, 1000, 2000}) {
    bench->Args({n, 5});
  }
  bench->Args({1000, 50});
}

}  // namespace

#define ECS_EXEC_TIMES_BENCH(tag, name)                                 \
  BENCHMARK_CAPTURE(run_policy_bench, tag, std::string(name), false)   \
      ->Apply(args_grid)                                               \
      ->Unit(benchmark::kMillisecond);                                 \
  BENCHMARK_CAPTURE(run_policy_bench, tag##_ref, std::string(name), true) \
      ->Apply(args_grid)                                               \
      ->Unit(benchmark::kMillisecond)

ECS_EXEC_TIMES_BENCH(edge_only, "edge-only");
ECS_EXEC_TIMES_BENCH(greedy, "greedy");
ECS_EXEC_TIMES_BENCH(srpt, "srpt");
ECS_EXEC_TIMES_BENCH(ssf_edf, "ssf-edf");

#undef ECS_EXEC_TIMES_BENCH

int main(int argc, char** argv) {
  ecs::bench::apply_log_level_argv(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
