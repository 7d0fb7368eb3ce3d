// Randomized engine-equivalence harness: observability and recording are
// pure observers. For random instances (with outages and unannounced
// faults), running the same policy with schedule recording on/off and
// tracing on/off must produce IDENTICAL results — completion times exact to
// the bit, stats equal field by field, interval histories equal whenever
// they are recorded, and trace streams equal whenever they are emitted.
//
// This pins the active-set engine core against observer effects: any
// accidental dependence of the hot path on a recorder, sink or counter
// (e.g. a progress update done only when tracing) breaks this suite
// immediately and exactly, with no tolerance to hide behind.
//
// A second matrix pins no-op round elision the same way: a policy run with
// its ElisionContract and the same policy with the contract hidden must be
// indistinguishable — plus engagement checks proving elision actually
// fires for the policies that opt in.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "obs/trace.hpp"
#include "sched/factory.hpp"
#include "sched/fixed.hpp"
#include "sim/batch.hpp"
#include "sim/engine.hpp"
#include "sim/engine_core.hpp"
#include "util/rng.hpp"
#include "workloads/outages.hpp"
#include "workloads/random_instances.hpp"

namespace ecs {
namespace {

struct Variant {
  SimResult result;
  std::vector<obs::TraceRecord> trace;
};

Variant run_variant(const Instance& instance, const std::string& policy_name,
                    const FaultPlan& faults, bool record, bool traced) {
  const auto policy = make_policy(policy_name);
  EngineConfig config;
  config.record_schedule = record;
  config.faults = faults;
  obs::MemoryTraceSink sink;
  if (traced) config.trace = &sink;
  Variant v;
  v.result = simulate(instance, *policy, config);
  v.trace = sink.records();
  return v;
}

void expect_same_run_record(const RunRecord& a, const RunRecord& b) {
  EXPECT_EQ(a.alloc, b.alloc);
  EXPECT_EQ(a.exec, b.exec);
  EXPECT_EQ(a.uplink, b.uplink);
  EXPECT_EQ(a.downlink, b.downlink);
}

void expect_same_schedule(const Schedule& a, const Schedule& b) {
  ASSERT_EQ(a.job_count(), b.job_count());
  for (int id = 0; id < a.job_count(); ++id) {
    expect_same_run_record(a.job(id).final_run, b.job(id).final_run);
    ASSERT_EQ(a.job(id).abandoned.size(), b.job(id).abandoned.size());
    for (std::size_t r = 0; r < a.job(id).abandoned.size(); ++r) {
      expect_same_run_record(a.job(id).abandoned[r], b.job(id).abandoned[r]);
    }
  }
}

/// Everything except policy_seconds (wall time is never reproducible).
void expect_same_stats(const SimStats& a, const SimStats& b) {
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.reassignments, b.reassignments);
  EXPECT_EQ(a.fault_aborts, b.fault_aborts);
  EXPECT_EQ(a.message_losses, b.message_losses);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.uplink_retransmits, b.uplink_retransmits);
  EXPECT_EQ(a.downlink_retransmits, b.downlink_retransmits);
  EXPECT_EQ(a.max_queue_depth, b.max_queue_depth);
}

void expect_same_fault_log(const std::vector<Event>& a,
                           const std::vector<Event>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].job, b[i].job);
    EXPECT_EQ(a[i].time, b[i].time);  // exact: same arithmetic, same bits
    EXPECT_EQ(a[i].cloud, b[i].cloud);
  }
}

/// The randomized scenario of the equivalence matrix: outage calendars on
/// odd seeds, unannounced fault plans on most, varying load and CCR.
Instance equivalence_instance(int seed, FaultPlan* faults) {
  RandomInstanceConfig cfg;
  cfg.n = 150;
  cfg.cloud_count = 3;
  cfg.slow_edges = 2;
  cfg.fast_edges = 2;
  cfg.load = seed % 2 == 0 ? 0.1 : 0.3;
  cfg.ccr = seed % 3 == 0 ? 5.0 : 1.0;
  Rng rng(1000 + seed);
  Instance instance = make_random_instance(cfg, rng);

  if (seed % 2 == 1) {  // announced outage windows on odd seeds
    OutageConfig outage_cfg;
    outage_cfg.fraction = 0.1;
    outage_cfg.mean_duration = 10.0;
    outage_cfg.horizon = 500.0;
    Rng outage_rng(2000 + seed);
    instance.cloud_outages =
        make_cloud_outages(cfg.cloud_count, outage_cfg, outage_rng);
  }

  if (seed % 3 != 0) {  // unannounced crashes + losses on most seeds
    FaultConfig fault_cfg;
    fault_cfg.crash_rate = 0.002;
    fault_cfg.mean_repair = 20.0;
    fault_cfg.loss_rate = 0.005;
    fault_cfg.horizon = 500.0;
    Rng fault_rng(3000 + seed);
    *faults = make_fault_plan(cfg.cloud_count, fault_cfg, fault_rng);
  }
  return instance;
}

/// Completions + stats + fault log + schedule, exact.
void expect_same_result(const SimResult& a, const SimResult& b) {
  ASSERT_EQ(a.completions.size(), b.completions.size());
  for (std::size_t i = 0; i < a.completions.size(); ++i) {
    EXPECT_EQ(a.completions[i], b.completions[i]) << "job " << i;
  }
  expect_same_stats(a.stats, b.stats);
  expect_same_fault_log(a.fault_log, b.fault_log);
  expect_same_schedule(a.schedule, b.schedule);
}

class EngineEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(EngineEquivalence, ObserversDoNotPerturbTheRun) {
  const auto& [policy_name, seed] = GetParam();
  FaultPlan faults;
  const Instance instance = equivalence_instance(seed, &faults);

  const Variant rec_traced =
      run_variant(instance, policy_name, faults, true, true);
  const Variant rec_plain =
      run_variant(instance, policy_name, faults, true, false);
  const Variant bare_traced =
      run_variant(instance, policy_name, faults, false, true);
  const Variant bare_plain =
      run_variant(instance, policy_name, faults, false, false);

  // Completion times: exact equality against the fully-instrumented run.
  for (const Variant* v : {&rec_plain, &bare_traced, &bare_plain}) {
    ASSERT_EQ(v->result.completions.size(),
              rec_traced.result.completions.size());
    for (std::size_t i = 0; i < v->result.completions.size(); ++i) {
      EXPECT_EQ(v->result.completions[i], rec_traced.result.completions[i])
          << "job " << i;
    }
    expect_same_stats(v->result.stats, rec_traced.result.stats);
    expect_same_fault_log(v->result.fault_log, rec_traced.result.fault_log);
  }

  // Interval histories: identical whenever recorded.
  expect_same_schedule(rec_traced.result.schedule, rec_plain.result.schedule);

  // Trace streams: identical whenever emitted (recording is invisible).
  ASSERT_EQ(rec_traced.trace.size(), bare_traced.trace.size());
  for (std::size_t i = 0; i < rec_traced.trace.size(); ++i) {
    EXPECT_EQ(rec_traced.trace[i], bare_traced.trace[i]) << "record " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesBySeeds, EngineEquivalence,
    ::testing::Combine(::testing::Values("edge-only", "greedy", "srpt",
                                         "ssf-edf", "fcfs",
                                         "failover-srpt"),
                       ::testing::Range(0, 4)),
    [](const auto& param_info) {
      std::string name = std::get<0>(param_info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_seed" + std::to_string(std::get<1>(param_info.param));
    });

// ---------------------------------------------- elision invisibility matrix
//
// Round elision must be behaviorally invisible: a policy run with its
// ElisionContract and the same policy behind NoElision (decide() on every
// round) must produce byte-identical runs — completions, stats, fault logs,
// interval histories AND trace streams — on the same randomized workloads
// (outages on odd seeds, unannounced faults on most), with admission
// control engaged on odd seeds so rejection/shed rounds are part of the
// matrix too.

/// Forwards everything to `inner` except its ElisionContract: elision()
/// keeps the default (no contract), so the engine runs decide() on every
/// round — the reference an elided run must match.
class NoElision final : public Policy {
 public:
  explicit NoElision(Policy& inner) : inner_(&inner) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void reset(const Instance& instance) override { inner_->reset(instance); }
  void decide(const SimView& view, const std::vector<Event>& events,
              std::vector<Directive>& out) override {
    inner_->decide(view, events, out);
  }

 private:
  Policy* inner_;
};

Variant run_mode_variant(const Instance& instance,
                         const std::string& policy_name,
                         const FaultPlan& faults, int seed, bool elide) {
  const auto policy = make_policy(policy_name);
  NoElision hidden(*policy);
  EngineConfig config;
  config.record_schedule = true;
  config.faults = faults;
  if (seed % 2 == 1) {  // a binding live cap on the higher-load seeds
    config.admission.max_live = 10;
    config.admission.rule = AdmissionRule::kRejectHopeless;
  }
  obs::MemoryTraceSink sink;
  config.trace = &sink;
  Variant v;
  v.result = elide ? simulate(instance, *policy, config)
                   : simulate(instance, hidden, config);
  v.trace = sink.records();
  return v;
}

class HotPathEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(HotPathEquivalence, ElisionIsInvisible) {
  const auto& [policy_name, seed] = GetParam();
  FaultPlan faults;
  const Instance instance = equivalence_instance(seed, &faults);

  const Variant elided =
      run_mode_variant(instance, policy_name, faults, seed, true);
  const Variant plain =
      run_mode_variant(instance, policy_name, faults, seed, false);

  expect_same_result(plain.result, elided.result);
  ASSERT_EQ(plain.trace.size(), elided.trace.size());
  for (std::size_t i = 0; i < plain.trace.size(); ++i) {
    EXPECT_EQ(plain.trace[i], elided.trace[i]) << "record " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesBySeeds, HotPathEquivalence,
    ::testing::Combine(::testing::Values("edge-only", "greedy", "srpt",
                                         "srpt-noreexec", "ssf-edf", "fcfs",
                                         "failover-srpt"),
                       ::testing::Range(0, 4)),
    [](const auto& param_info) {
      std::string name = std::get<0>(param_info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_seed" + std::to_string(std::get<1>(param_info.param));
    });

// The matrix above proves elision is invisible; these two prove it is not
// vacuous — the contracts actually fire. Factory policies mostly opt out
// (their output depends on remaining work), so the engagement checks use
// the two opted-in shapes: FixedPolicy (kReuseUnlessTriggered) and a
// release-driven policy (kEmptyUnlessTriggered) like the micro-bench's.

TEST(RoundElision, ReuseContractEngagesForFixedAssignments) {
  FaultPlan faults;
  const Instance instance = equivalence_instance(0, &faults);  // fault-free
  // Spread jobs over the three clouds: every uplink-done / compute-done
  // round re-arbitrates without a release or membership change, which is
  // exactly the round shape the kReuse contract elides.
  std::vector<int> alloc(instance.jobs.size());
  std::vector<double> priority(instance.jobs.size());
  for (std::size_t i = 0; i < instance.jobs.size(); ++i) {
    alloc[i] = static_cast<int>(i % 3);
    priority[i] = static_cast<double>(i);
  }

  auto run_with = [&](bool elide, std::uint64_t* elided) {
    FixedPolicy fixed(alloc, priority);
    NoElision hidden(fixed);
    Policy& policy = elide ? static_cast<Policy&>(fixed) : hidden;
    EngineConfig config;
    config.record_schedule = true;
    policy.reset(instance);
    detail::EngineCore core;
    core.prepare(instance, nullptr, policy, config);
    SimResult result = core.run();
    *elided = core.elided_rounds();
    return result;
  };

  std::uint64_t elided_on = 0;
  std::uint64_t elided_off = 0;
  const SimResult on = run_with(true, &elided_on);
  const SimResult off = run_with(false, &elided_off);
  EXPECT_GT(elided_on, 0U) << "reuse elision never engaged";
  EXPECT_EQ(elided_off, 0U) << "elision engaged without a contract";
  expect_same_result(on, off);
}

/// Mirrors the micro-bench's sparse-decision policy: directives only at
/// releases, so every release-free round is provably a no-op.
class ReleaseOnlyPolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "ReleaseOnly"; }

  void decide(const SimView& view, const std::vector<Event>& events,
              std::vector<Directive>& out) override {
    (void)view;
    for (const Event& e : events) {
      if (e.kind != EventKind::kRelease) continue;
      out.push_back(Directive{e.job, e.job % 2 == 0 ? kAllocEdge : 0,
                              static_cast<double>(e.job),
                              ReasonCode::kFixedAssignment});
    }
  }

  [[nodiscard]] ElisionContract elision() const override {
    return ElisionContract{ElisionContract::Mode::kEmptyUnlessTriggered,
                           ElisionContract::bit(EventKind::kRelease)};
  }
};

TEST(RoundElision, EmptyContractEngagesForReleaseDrivenPolicy) {
  FaultPlan faults;
  const Instance instance = equivalence_instance(0, &faults);  // fault-free

  auto run_with = [&](bool elide, std::uint64_t* elided) {
    ReleaseOnlyPolicy release_only;
    NoElision hidden(release_only);
    Policy& policy = elide ? static_cast<Policy&>(release_only) : hidden;
    EngineConfig config;
    config.record_schedule = true;
    policy.reset(instance);
    detail::EngineCore core;
    core.prepare(instance, nullptr, policy, config);
    SimResult result = core.run();
    *elided = core.elided_rounds();
    return result;
  };

  std::uint64_t elided_on = 0;
  std::uint64_t elided_off = 0;
  const SimResult on = run_with(true, &elided_on);
  const SimResult off = run_with(false, &elided_off);
  EXPECT_GT(elided_on, 0U) << "empty elision never engaged";
  EXPECT_EQ(elided_off, 0U) << "elision engaged without a contract";
  expect_same_result(on, off);
}

// ----------------------------------------------------- batched execution
//
// The batch driver's contract: a world's result depends only on its
// (instance, policy, config) triple — never on core reuse, chunked
// stepping, interleaving with other worlds, or which worker ran it.

const std::vector<std::string> kAllPolicies = {
    "edge-only", "greedy", "srpt", "ssf-edf", "fcfs", "failover-srpt"};
constexpr int kSeedCount = 4;

TEST(BatchEquivalence, BatchedWorldMatrixMatchesSimulateBitForBit) {
  // Every (policy, seed) cell as a world, on few threads with a tiny
  // rounds_per_visit so worlds genuinely interleave mid-run, against a
  // fresh simulate() per cell.
  struct Cell {
    Instance instance;
    FaultPlan faults;
    SimResult batched;
  };
  std::vector<Cell> cells(kAllPolicies.size() * kSeedCount);
  for (int seed = 0; seed < kSeedCount; ++seed) {
    for (std::size_t p = 0; p < kAllPolicies.size(); ++p) {
      Cell& cell = cells[seed * kAllPolicies.size() + p];
      cell.instance = equivalence_instance(seed, &cell.faults);
    }
  }

  BatchOptions options;
  options.threads = 3;
  options.worlds_per_thread = 2;
  options.rounds_per_visit = 17;  // deliberately tiny and odd
  BatchEngine batch(
      kAllPolicies.size(),
      [](std::size_t p) { return make_policy(kAllPolicies[p]); }, options);
  batch.run(
      cells.size(),
      [&](std::size_t index, Instance& instance, WorldSetup& setup) {
        instance = cells[index].instance;
        setup.policy = index % kAllPolicies.size();
        setup.config = EngineConfig{};
        setup.config.record_schedule = true;
        setup.config.faults = cells[index].faults;
      },
      [&](std::size_t index, const Instance&, SimResult& result, double) {
        cells[index].batched = std::move(result);
      });

  for (int seed = 0; seed < kSeedCount; ++seed) {
    for (std::size_t p = 0; p < kAllPolicies.size(); ++p) {
      const Cell& cell = cells[seed * kAllPolicies.size() + p];
      const auto policy = make_policy(kAllPolicies[p]);
      EngineConfig config;
      config.record_schedule = true;
      config.faults = cell.faults;
      const SimResult reference = simulate(cell.instance, *policy, config);
      SCOPED_TRACE(kAllPolicies[p] + " seed " + std::to_string(seed));
      expect_same_result(cell.batched, reference);
    }
  }
}

TEST(BatchEquivalence, InterleavedWorldsOnOneStatefulPolicyStayIsolated) {
  // Regression: a single worker interleaves its two resident worlds in
  // round-robin chunks. Give BOTH worlds the same stateful policy
  // (ssf-edf carries deadlines and a warm-started target stretch across
  // decide() calls) — if the resident slots shared one policy object, the
  // interleaving would bleed one world's search state into the other.
  struct Cell {
    Instance instance;
    FaultPlan faults;
    SimResult batched;
  };
  std::vector<Cell> cells(kSeedCount);
  for (int seed = 0; seed < kSeedCount; ++seed) {
    cells[seed].instance = equivalence_instance(seed, &cells[seed].faults);
  }

  BatchOptions options;
  options.threads = 1;             // one worker, fully deterministic
  options.worlds_per_thread = 2;   // two interleaved resident worlds
  options.rounds_per_visit = 3;    // swap between them constantly
  BatchEngine batch(
      1, [](std::size_t) { return make_policy("ssf-edf"); }, options);
  batch.run(
      cells.size(),
      [&](std::size_t index, Instance& instance, WorldSetup& setup) {
        instance = cells[index].instance;
        setup.config.record_schedule = true;
        setup.config.faults = cells[index].faults;
      },
      [&](std::size_t index, const Instance&, SimResult& result, double) {
        cells[index].batched = std::move(result);
      });

  for (int seed = 0; seed < kSeedCount; ++seed) {
    const auto policy = make_policy("ssf-edf");
    EngineConfig config;
    config.record_schedule = true;
    config.faults = cells[seed].faults;
    const SimResult reference =
        simulate(cells[seed].instance, *policy, config);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_same_result(cells[seed].batched, reference);
  }
}

// The shared world pool: any worker steps any world between visits, so a
// world migrates between threads, sometimes after every round. Thirteen
// worlds of mixed length (n = 5 to 400) and policy, SSF-EDF's stateful
// search among them, each against a fresh simulate().
struct PoolWorld {
  Instance instance;
  FaultPlan faults;
  std::size_t policy = 0;
  SimResult reference;
};

std::vector<PoolWorld> pool_worlds() {
  const int sizes[13] = {5, 400, 12, 150, 30, 250, 8, 60, 400, 20, 100, 5,
                         300};
  std::vector<PoolWorld> worlds(13);
  for (std::size_t i = 0; i < worlds.size(); ++i) {
    PoolWorld& w = worlds[i];
    RandomInstanceConfig cfg;
    cfg.n = sizes[i];
    cfg.cloud_count = 3;
    cfg.slow_edges = 2;
    cfg.fast_edges = 2;
    cfg.load = i % 2 == 0 ? 0.3 : 0.6;
    Rng rng(7000 + i);
    w.instance = make_random_instance(cfg, rng);
    if (i % 4 == 1) {
      FaultConfig fault_cfg;
      fault_cfg.crash_rate = 0.002;
      fault_cfg.mean_repair = 20.0;
      fault_cfg.horizon = 500.0;
      Rng fault_rng(8000 + i);
      w.faults = make_fault_plan(cfg.cloud_count, fault_cfg, fault_rng);
    }
    w.policy = i % kAllPolicies.size();
    const auto policy = make_policy(kAllPolicies[w.policy]);
    EngineConfig config;
    config.record_schedule = true;
    config.faults = w.faults;
    w.reference = simulate(w.instance, *policy, config);
  }
  return worlds;
}

/// Runs every pool world through `batch`; `on_result` sees each result.
void run_pool(BatchEngine& batch, const std::vector<PoolWorld>& worlds,
              const WorldResultFn& on_result) {
  batch.run(
      worlds.size(),
      [&](std::size_t index, Instance& instance, WorldSetup& setup) {
        instance = worlds[index].instance;
        setup.policy = worlds[index].policy;
        setup.config.record_schedule = true;
        setup.config.faults = worlds[index].faults;
      },
      on_result);
}

BatchEngine pool_engine(unsigned threads, std::uint32_t worlds_per_thread,
                        std::uint64_t rounds_per_visit) {
  BatchOptions options;
  options.threads = threads;
  options.worlds_per_thread = worlds_per_thread;
  options.rounds_per_visit = rounds_per_visit;
  return BatchEngine(
      kAllPolicies.size(),
      [](std::size_t p) { return make_policy(kAllPolicies[p]); }, options);
}

TEST(BatchPool, MigratingWorldsMatchSimulateBitForBit) {
  const std::vector<PoolWorld> worlds = pool_worlds();
  for (const unsigned threads : {1U, 3U, 4U}) {
    for (const std::uint32_t per_thread : {1U, 2U, 3U}) {
      for (const std::uint64_t rounds : {1U, 3U}) {
        SCOPED_TRACE("threads " + std::to_string(threads) + " per thread " +
                     std::to_string(per_thread) + " rounds " +
                     std::to_string(rounds));
        BatchEngine batch = pool_engine(threads, per_thread, rounds);
        std::vector<SimResult> results(worlds.size());
        std::vector<std::atomic<int>> calls(worlds.size());
        run_pool(batch, worlds,
                 [&](std::size_t index, const Instance&, SimResult& result,
                     double) {
                   calls[index].fetch_add(1);
                   results[index] = std::move(result);
                 });
        for (std::size_t i = 0; i < worlds.size(); ++i) {
          SCOPED_TRACE("world " + std::to_string(i) + " (" +
                       kAllPolicies[worlds[i].policy] + ")");
          ASSERT_EQ(calls[i].load(), 1);
          expect_same_result(results[i], worlds[i].reference);
        }
      }
    }
  }
}

TEST(BatchPool, ThrowingCallbackAbortsAndTheNextRunIsExact) {
  // A result callback throws at one index: run() must rethrow it after the
  // workers join (ctest's timeout catches a hang), and the next run() on
  // the same engine — whose slots the abort left mid-flight — must still
  // be bit-identical.
  const std::vector<PoolWorld> worlds = pool_worlds();
  BatchEngine batch = pool_engine(3, 2, 3);
  std::vector<std::atomic<int>> calls(worlds.size());
  EXPECT_THROW(
      run_pool(batch, worlds,
               [&](std::size_t index, const Instance&, SimResult&, double) {
                 calls[index].fetch_add(1);
                 if (index == 4) throw std::runtime_error("callback failed");
               }),
      std::runtime_error);
  EXPECT_EQ(calls[4].load(), 1);
  for (const std::atomic<int>& c : calls) EXPECT_LE(c.load(), 1);

  std::vector<SimResult> results(worlds.size());
  for (std::atomic<int>& c : calls) c.store(0);
  run_pool(batch, worlds,
           [&](std::size_t index, const Instance&, SimResult& result,
               double) {
             calls[index].fetch_add(1);
             results[index] = std::move(result);
           });
  for (std::size_t i = 0; i < worlds.size(); ++i) {
    SCOPED_TRACE("world " + std::to_string(i));
    ASSERT_EQ(calls[i].load(), 1);
    expect_same_result(results[i], worlds[i].reference);
  }
}

TEST(BatchEquivalence, ReusedCoreIsBitIdenticalToFreshCores) {
  // One core and one policy object, prepared over and over across runs
  // with DIFFERENT instances in between (so leftover capacity from a big
  // run faces a small run, and vice versa), versus a fresh core per run.
  detail::EngineCore reused;
  const auto policy = make_policy("srpt");
  for (int seed = 0; seed < kSeedCount; ++seed) {
    FaultPlan faults;
    const Instance instance = equivalence_instance(seed, &faults);
    EngineConfig config;
    config.record_schedule = true;
    config.faults = faults;

    policy->reset(instance);
    reused.prepare(instance, nullptr, *policy, config);
    const SimResult warm = reused.run();

    detail::EngineCore fresh;
    const auto fresh_policy = make_policy("srpt");
    fresh_policy->reset(instance);
    fresh.prepare(instance, nullptr, *fresh_policy, config);
    const SimResult cold = fresh.run();

    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_same_result(warm, cold);
  }
}

TEST(BatchEquivalence, ChunkSizeOfSteppingNeverAffectsResults) {
  FaultPlan faults;
  const Instance instance = equivalence_instance(1, &faults);
  EngineConfig config;
  config.record_schedule = true;
  config.faults = faults;

  SimResult results[3];
  const std::uint64_t chunks[3] = {1, 7, 0};  // 0 = run to completion
  for (int i = 0; i < 3; ++i) {
    detail::EngineCore core;
    const auto policy = make_policy("ssf-edf");
    policy->reset(instance);
    core.prepare(instance, nullptr, *policy, config);
    if (chunks[i] == 0) {
      results[i] = core.run();
    } else {
      while (!core.step_rounds(chunks[i])) {
      }
      core.finish_into(results[i]);
    }
  }
  expect_same_result(results[0], results[2]);
  expect_same_result(results[1], results[2]);
}

}  // namespace
}  // namespace ecs
