// Tests for the experiment harness (exp/runner.hpp, exp/sweep.hpp,
// exp/parallel.hpp, exp/report.hpp).
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

#include "util/parallel.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "sim/faults.hpp"
#include "util/rng.hpp"
#include "workloads/random_instances.hpp"

namespace ecs {
namespace {

Instance tiny_instance(std::uint64_t seed) {
  RandomInstanceConfig cfg;
  cfg.n = 30;
  cfg.cloud_count = 2;
  cfg.slow_edges = 2;
  cfg.fast_edges = 2;
  Rng rng(seed);
  return make_random_instance(cfg, rng);
}

TEST(Parallel, CoversAllIndices) {
  std::vector<std::atomic<int>> hits(100);
  parallel_for(100, [&](std::size_t i) { hits[i].fetch_add(1); }, 4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, SerialFallback) {
  int count = 0;
  parallel_for(10, [&](std::size_t) { ++count; }, 1);
  EXPECT_EQ(count, 10);
}

TEST(Parallel, EmptyIsNoop) {
  parallel_for(0, [&](std::size_t) { FAIL(); }, 4);
}

TEST(Parallel, PropagatesException) {
  EXPECT_THROW(parallel_for(
                   8,
                   [&](std::size_t i) {
                     if (i == 3) throw std::runtime_error("boom");
                   },
                   4),
               std::runtime_error);
}

TEST(Parallel, AbortsRemainingWorkOnFirstException) {
  // With every body throwing, the abort flag must stop workers from
  // claiming new indices: out of 100000 only a handful (at most one
  // in-flight per worker, plus the raciness of the relaxed flag) may run.
  std::atomic<int> invocations{0};
  EXPECT_THROW(parallel_for(
                   100000,
                   [&](std::size_t) {
                     invocations.fetch_add(1);
                     throw std::runtime_error("boom");
                   },
                   4),
               std::runtime_error);
  EXPECT_LE(invocations.load(), 64);  // far below 100000 => short-circuited
}

TEST(Runner, ValidatedRunProducesMetrics) {
  const Instance instance = tiny_instance(1);
  RunOptions options;
  options.validate = true;
  const RunOutcome outcome = run_policy(instance, "srpt", options);
  EXPECT_TRUE(outcome.validated);
  EXPECT_EQ(outcome.policy, "SRPT");
  EXPECT_GE(outcome.metrics.max_stretch, 1.0);
  EXPECT_GT(outcome.wall_seconds, 0.0);
  EXPECT_EQ(outcome.metrics.per_job.size(), instance.jobs.size());
}

TEST(Runner, UnvalidatedRunMatchesValidated) {
  const Instance instance = tiny_instance(2);
  RunOptions with;
  with.validate = true;
  RunOptions without;
  without.validate = false;
  const RunOutcome a = run_policy(instance, "ssf-edf", with);
  const RunOutcome b = run_policy(instance, "ssf-edf", without);
  EXPECT_NEAR(a.metrics.max_stretch, b.metrics.max_stretch, 1e-9);
  EXPECT_NEAR(a.metrics.mean_stretch, b.metrics.mean_stretch, 1e-9);
}

TEST(Runner, UnknownPolicyThrows) {
  const Instance instance = tiny_instance(3);
  EXPECT_THROW((void)run_policy(instance, "does-not-exist", RunOptions{}),
               std::invalid_argument);
}

TEST(Sweep, ReplicationSeedsAreDistinct) {
  const std::uint64_t a = replication_seed(42, "x", 0);
  const std::uint64_t b = replication_seed(42, "x", 1);
  const std::uint64_t c = replication_seed(42, "y", 0);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a, replication_seed(42, "x", 0));
}

TEST(Sweep, AggregatesAllReplications) {
  SweepOptions options;
  options.replications = 4;
  options.threads = 2;
  const SweepPointResult result = run_sweep_point(
      "point", [](std::uint64_t seed) { return tiny_instance(seed); },
      {"srpt", "greedy"}, options);
  ASSERT_EQ(result.per_policy.size(), 2u);
  EXPECT_EQ(result.policy("srpt").max_stretch.count(), 4u);
  EXPECT_EQ(result.policy("greedy").max_stretch.count(), 4u);
  EXPECT_GE(result.policy("srpt").max_stretch.mean(), 1.0);
  EXPECT_THROW((void)result.policy("nope"), std::out_of_range);
}

TEST(Sweep, DeterministicAcrossThreadCounts) {
  SweepOptions serial;
  serial.replications = 3;
  serial.threads = 1;
  SweepOptions parallel_opts;
  parallel_opts.replications = 3;
  parallel_opts.threads = 3;
  const auto factory = [](std::uint64_t seed) { return tiny_instance(seed); };
  const SweepPointResult a =
      run_sweep_point("p", factory, {"srpt"}, serial);
  const SweepPointResult b =
      run_sweep_point("p", factory, {"srpt"}, parallel_opts);
  EXPECT_DOUBLE_EQ(a.policy("srpt").max_stretch.mean(),
                   b.policy("srpt").max_stretch.mean());
  EXPECT_DOUBLE_EQ(a.policy("srpt").max_stretch.stddev(),
                   b.policy("srpt").max_stretch.stddev());
}

TEST(Sweep, SweepSeedMixesThePointIndex) {
  // Backward compatibility: index -1 IS the historical derivation.
  EXPECT_EQ(sweep_seed(42, -1, "x", 3), replication_seed(42, "x", 3));
  // Same label at different sweep points must draw distinct seed streams —
  // the collision two points whose values format identically used to hit.
  const std::uint64_t p0 = sweep_seed(42, 0, "0.50", 0);
  const std::uint64_t p1 = sweep_seed(42, 1, "0.50", 0);
  const std::uint64_t no_index = sweep_seed(42, -1, "0.50", 0);
  EXPECT_NE(p0, p1);
  EXPECT_NE(p0, no_index);
  EXPECT_NE(p1, no_index);
  // Deterministic, and still distinct across replications and bases.
  EXPECT_EQ(p0, sweep_seed(42, 0, "0.50", 0));
  EXPECT_NE(p0, sweep_seed(42, 0, "0.50", 1));
  EXPECT_NE(p0, sweep_seed(43, 0, "0.50", 0));
}

/// The aggregates run_sweep_point must produce, built serially: every
/// (replication, policy) world through run_policy on
/// factory(sweep_seed(...)) with the replication's fault plan, replication
/// 0 validated, accumulated in replication order.
SweepPointResult serial_sweep_point(const std::string& label,
                                    const InstanceFactory& factory,
                                    const std::vector<std::string>& policies,
                                    const SweepOptions& options) {
  SweepPointResult result;
  result.label = label;
  for (const std::string& name : policies) {
    result.per_policy.emplace_back();
    result.per_policy.back().policy = name;
  }
  for (int rep = 0; rep < options.replications; ++rep) {
    const std::uint64_t seed =
        sweep_seed(options.base_seed, options.point_index, label, rep);
    const Instance instance = factory(seed);
    RunOptions run_options;
    run_options.engine = options.engine;
    if (options.fault_factory) {
      run_options.engine.faults = options.fault_factory(instance, seed);
    }
    run_options.validate = options.validate_first && rep == 0;
    for (std::size_t p = 0; p < policies.size(); ++p) {
      const RunOutcome outcome =
          run_policy(instance, policies[p], run_options);
      PolicyAggregate& agg = result.per_policy[p];
      agg.max_stretch.add(outcome.metrics.max_stretch);
      agg.mean_stretch.add(outcome.metrics.mean_stretch);
      agg.reassignments.add(
          static_cast<double>(outcome.stats.reassignments));
      agg.events.add(static_cast<double>(outcome.stats.events));
      obs::QuantileSketch stretch;
      obs::QuantileSketch flow;
      for (const JobMetrics& jm : outcome.metrics.per_job) {
        stretch.observe(jm.stretch);
        flow.observe(jm.response);
      }
      agg.stretch_sketch.merge(stretch);
      agg.flow_sketch.merge(flow);
      agg.queue_depth_sketch.observe(
          static_cast<double>(outcome.stats.max_queue_depth));
    }
  }
  return result;
}

/// Every deterministic accumulator and the merged sketches, exactly
/// (wall_seconds is wall time and never reproducible).
void expect_same_aggregates(const SweepPointResult& got,
                            const SweepPointResult& want,
                            const std::vector<std::string>& policies) {
  for (const std::string& name : policies) {
    SCOPED_TRACE(name);
    const PolicyAggregate& a = got.policy(name);
    const PolicyAggregate& b = want.policy(name);
    EXPECT_EQ(a.max_stretch.count(), b.max_stretch.count());
    EXPECT_EQ(a.max_stretch.mean(), b.max_stretch.mean());
    EXPECT_EQ(a.max_stretch.stddev(), b.max_stretch.stddev());
    EXPECT_EQ(a.mean_stretch.mean(), b.mean_stretch.mean());
    EXPECT_EQ(a.reassignments.mean(), b.reassignments.mean());
    EXPECT_EQ(a.events.mean(), b.events.mean());
    EXPECT_EQ(a.stretch_sketch.count(), b.stretch_sketch.count());
    EXPECT_EQ(a.stretch_sketch.sum(), b.stretch_sketch.sum());
    EXPECT_EQ(a.stretch_sketch.quantile(0.99),
              b.stretch_sketch.quantile(0.99));
    EXPECT_EQ(a.flow_sketch.quantile(0.5), b.flow_sketch.quantile(0.5));
    EXPECT_EQ(a.queue_depth_sketch.max(), b.queue_depth_sketch.max());
  }
}

TEST(Sweep, MatchesSerialRunPolicyReference) {
  // A multi-policy, multi-replication point on several threads, with
  // validation on (replication 0 takes the record+validate path).
  const auto factory = [](std::uint64_t seed) { return tiny_instance(seed); };
  const std::vector<std::string> policies = {"srpt", "greedy", "ssf-edf"};
  SweepOptions options;
  options.replications = 6;
  options.threads = 3;
  options.point_index = 2;

  const SweepPointResult got = run_sweep_point("p", factory, policies, options);
  const SweepPointResult want =
      serial_sweep_point("p", factory, policies, options);
  expect_same_aggregates(got, want, policies);
}

TEST(Sweep, FaultFactoryMatchesSerialRunPolicyReference) {
  // A per-replication fault plan: every policy of a replication faces the
  // same plan, and the validator of replication 0 checks the schedule
  // against the plan re-derived from the replication's seed.
  const auto factory = [](std::uint64_t seed) { return tiny_instance(seed); };
  const std::vector<std::string> policies = {"srpt", "failover-srpt"};
  SweepOptions options;
  options.replications = 5;
  options.threads = 2;
  options.point_index = 1;
  const SweepPointResult fault_free =
      run_sweep_point("f", factory, policies, options);
  options.fault_factory = [](const Instance& instance, std::uint64_t seed) {
    FaultConfig cfg;
    cfg.crash_rate = 0.02;
    cfg.mean_repair = 5.0;
    cfg.loss_rate = 0.05;
    cfg.horizon = 200.0;
    Rng rng(derive_seed(seed, hash_tag("faults")));
    return make_fault_plan(instance.platform.cloud_count(), cfg, rng);
  };

  const SweepPointResult got = run_sweep_point("f", factory, policies, options);
  const SweepPointResult want =
      serial_sweep_point("f", factory, policies, options);
  expect_same_aggregates(got, want, policies);
  // Not vacuous: the faults changed the runs.
  EXPECT_NE(got.policy("srpt").events.mean(),
            fault_free.policy("srpt").events.mean());
}

TEST(Report, TableAlignmentAndCsv) {
  Table table({"x", "value"});
  table.add_row({"1", "10.5"});
  table.add_row({"2", "3"});
  std::ostringstream text;
  table.print(text);
  EXPECT_NE(text.str().find("x"), std::string::npos);
  EXPECT_NE(text.str().find("10.5"), std::string::npos);
  std::ostringstream csv;
  table.write_csv(csv);
  EXPECT_EQ(csv.str(), "x,value\n1,10.5\n2,3\n");
  EXPECT_THROW(table.add_row({"only-one-cell"}), std::invalid_argument);
}

TEST(Report, CsvQuotesSpecialCells) {
  Table table({"name", "note"});
  table.add_row({"a,b", "plain"});
  table.add_row({"quote\"inside", "line\nbreak"});
  std::ostringstream csv;
  table.write_csv(csv);
  EXPECT_EQ(csv.str(),
            "name,note\n\"a,b\",plain\n\"quote\"\"inside\",\"line\nbreak\"\n");
}

TEST(Report, MakeReportBuildsOneRowPerPoint) {
  SweepOptions options;
  options.replications = 2;
  options.validate_first = false;
  std::vector<SweepPointResult> points;
  points.push_back(run_sweep_point(
      "a", [](std::uint64_t seed) { return tiny_instance(seed); }, {"srpt"},
      options));
  points.push_back(run_sweep_point(
      "b", [](std::uint64_t seed) { return tiny_instance(seed + 50); },
      {"srpt"}, options));
  ReportOptions report_options;
  report_options.x_label = "scenario";
  const Table table = make_report(points, {"srpt"}, report_options);
  EXPECT_EQ(table.row_count(), 2u);
}

}  // namespace
}  // namespace ecs
