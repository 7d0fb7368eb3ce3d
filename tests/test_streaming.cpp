// Streaming-engine suite: simulate_stream with admission disabled must be
// BIT-IDENTICAL to simulate over the materialized instance — completions,
// stats, schedules, fault logs and trace streams — across policies x seeds
// x fault plans. On top of that: admission-control semantics (caps hold,
// refused jobs leave no recorded activity, validator and online watchdog
// stay green) and a 1M-job overload soak proving the working set stays
// flat at the admission cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/validate.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "sched/factory.hpp"
#include "sim/arrivals.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workloads/arrivals.hpp"
#include "workloads/outages.hpp"
#include "workloads/random_instances.hpp"

namespace ecs {
namespace {

/// The streaming engine runs over the platform + outage calendar only.
Instance platform_of(const Instance& instance) {
  Instance base;
  base.platform = instance.platform;
  base.cloud_outages = instance.cloud_outages;
  return base;
}

struct Variant {
  SimResult result;
  std::vector<obs::TraceRecord> trace;
};

Variant run_materialized(const Instance& instance,
                         const std::string& policy_name,
                         const FaultPlan& faults) {
  const auto policy = make_policy(policy_name);
  EngineConfig config;
  config.faults = faults;
  obs::MemoryTraceSink sink;
  config.trace = &sink;
  Variant v;
  v.result = simulate(instance, *policy, config);
  v.trace = sink.records();
  return v;
}

Variant run_streaming(const Instance& instance,
                      const std::string& policy_name, const FaultPlan& faults,
                      const AdmissionConfig& admission = {}) {
  const auto policy = make_policy(policy_name);
  EngineConfig config;
  config.faults = faults;
  config.admission = admission;
  obs::MemoryTraceSink sink;
  config.trace = &sink;
  InstanceArrivalStream arrivals(instance);
  const Instance base = platform_of(instance);
  Variant v;
  v.result = simulate_stream(base, arrivals, *policy, config);
  v.trace = sink.records();
  return v;
}

void expect_same_run_record(const RunRecord& a, const RunRecord& b) {
  EXPECT_EQ(a.alloc, b.alloc);
  EXPECT_EQ(a.exec, b.exec);
  EXPECT_EQ(a.uplink, b.uplink);
  EXPECT_EQ(a.downlink, b.downlink);
}

void expect_same_results(const Variant& stream, const Variant& mat) {
  // Completions: exact to the bit.
  ASSERT_EQ(stream.result.completions.size(), mat.result.completions.size());
  for (std::size_t i = 0; i < mat.result.completions.size(); ++i) {
    EXPECT_EQ(stream.result.completions[i], mat.result.completions[i])
        << "job " << i;
  }

  // Stats: every deterministic field.
  const SimStats& a = stream.result.stats;
  const SimStats& b = mat.result.stats;
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.reassignments, b.reassignments);
  EXPECT_EQ(a.fault_aborts, b.fault_aborts);
  EXPECT_EQ(a.message_losses, b.message_losses);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.uplink_retransmits, b.uplink_retransmits);
  EXPECT_EQ(a.downlink_retransmits, b.downlink_retransmits);
  EXPECT_EQ(a.max_queue_depth, b.max_queue_depth);
  EXPECT_EQ(a.peak_live, b.peak_live);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.rejections, b.rejections);
  EXPECT_EQ(a.sheds, b.sheds);
  EXPECT_EQ(a.max_stretch, b.max_stretch);

  // Fault logs: same realized fault trace.
  ASSERT_EQ(stream.result.fault_log.size(), mat.result.fault_log.size());
  for (std::size_t i = 0; i < mat.result.fault_log.size(); ++i) {
    EXPECT_EQ(stream.result.fault_log[i].kind, mat.result.fault_log[i].kind);
    EXPECT_EQ(stream.result.fault_log[i].job, mat.result.fault_log[i].job);
    EXPECT_EQ(stream.result.fault_log[i].time, mat.result.fault_log[i].time);
    EXPECT_EQ(stream.result.fault_log[i].cloud,
              mat.result.fault_log[i].cloud);
  }

  // Schedules: identical interval histories, job by job.
  ASSERT_EQ(stream.result.schedule.job_count(),
            mat.result.schedule.job_count());
  for (int id = 0; id < mat.result.schedule.job_count(); ++id) {
    expect_same_run_record(stream.result.schedule.job(id).final_run,
                           mat.result.schedule.job(id).final_run);
    ASSERT_EQ(stream.result.schedule.job(id).abandoned.size(),
              mat.result.schedule.job(id).abandoned.size());
    for (std::size_t r = 0; r < mat.result.schedule.job(id).abandoned.size();
         ++r) {
      expect_same_run_record(stream.result.schedule.job(id).abandoned[r],
                             mat.result.schedule.job(id).abandoned[r]);
    }
  }

  // Trace streams: record-for-record equal.
  ASSERT_EQ(stream.trace.size(), mat.trace.size());
  for (std::size_t i = 0; i < mat.trace.size(); ++i) {
    EXPECT_EQ(stream.trace[i], mat.trace[i]) << "record " << i;
  }
}

Instance equivalence_instance(int seed, FaultPlan* faults) {
  RandomInstanceConfig cfg;
  cfg.n = 150;
  cfg.cloud_count = 3;
  cfg.slow_edges = 2;
  cfg.fast_edges = 2;
  cfg.load = seed % 2 == 0 ? 0.1 : 0.4;
  cfg.ccr = seed % 3 == 0 ? 5.0 : 1.0;
  Rng rng(7000 + seed);
  Instance instance = make_random_instance(cfg, rng);

  if (seed % 2 == 1) {
    OutageConfig outage_cfg;
    outage_cfg.fraction = 0.1;
    outage_cfg.mean_duration = 10.0;
    outage_cfg.horizon = 500.0;
    Rng outage_rng(8000 + seed);
    instance.cloud_outages =
        make_cloud_outages(cfg.cloud_count, outage_cfg, outage_rng);
  }
  if (seed % 3 != 0) {
    FaultConfig fault_cfg;
    fault_cfg.crash_rate = 0.002;
    fault_cfg.mean_repair = 20.0;
    fault_cfg.loss_rate = 0.005;
    fault_cfg.horizon = 500.0;
    Rng fault_rng(9000 + seed);
    *faults = make_fault_plan(cfg.cloud_count, fault_cfg, fault_rng);
  }
  return instance;
}

class StreamingEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(StreamingEquivalence, StreamMatchesMaterializedBitForBit) {
  const auto& [policy_name, seed] = GetParam();
  FaultPlan faults;
  const Instance instance = equivalence_instance(seed, &faults);
  const Variant mat = run_materialized(instance, policy_name, faults);
  const Variant stream = run_streaming(instance, policy_name, faults);
  expect_same_results(stream, mat);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesBySeeds, StreamingEquivalence,
    ::testing::Combine(::testing::Values("edge-only", "greedy", "srpt",
                                         "ssf-edf", "fcfs", "failover-srpt"),
                       ::testing::Range(0, 4)),
    [](const auto& param_info) {
      std::string name = std::get<0>(param_info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_seed" + std::to_string(std::get<1>(param_info.param));
    });

TEST(Streaming, SyntheticFamilyRunsAreDeterministic) {
  ArrivalConfig acfg;
  acfg.family = ArrivalFamily::kBursty;
  acfg.n = 400;
  acfg.rate = 0.5;
  acfg.seed = 11;
  acfg.shape.edge_count = 4;

  RandomInstanceConfig pcfg;
  pcfg.cloud_count = 3;
  pcfg.slow_edges = 2;
  pcfg.fast_edges = 2;
  Instance base;
  base.platform = make_random_platform(pcfg);

  SimStats stats[2];
  for (int round = 0; round < 2; ++round) {
    const auto arrivals = make_arrival_stream(acfg);
    const auto policy = make_policy("srpt");
    stats[round] =
        simulate_stream(base, *arrivals, *policy, EngineConfig{}).stats;
  }
  EXPECT_EQ(stats[0].events, stats[1].events);
  EXPECT_EQ(stats[0].completed, stats[1].completed);
  EXPECT_EQ(stats[0].peak_live, stats[1].peak_live);
  EXPECT_EQ(stats[0].max_stretch, stats[1].max_stretch);
  EXPECT_EQ(stats[0].completed, 400u);
}

// ------------------------------------------------------------- admission

/// A deliberately overloaded materialized instance (load >> capacity) so
/// admission decisions actually fire, while the schedule stays checkable
/// by the validator.
Instance overload_instance(int n = 300) {
  RandomInstanceConfig cfg;
  cfg.n = n;
  cfg.cloud_count = 2;
  cfg.slow_edges = 2;
  cfg.fast_edges = 1;
  cfg.load = 8.0;  // ~8x oversubscribed: sustained overload
  Rng rng(1234);
  return make_random_instance(cfg, rng);
}

std::vector<JobId> refused_ids(const SimResult& result) {
  std::vector<JobId> ids;
  for (const AdmissionRecord& rec : result.admission_log) {
    ids.push_back(rec.job);
  }
  return ids;
}

TEST(Admission, RejectNewestCapsTheLiveSet) {
  const Instance instance = overload_instance();
  AdmissionConfig admission;
  admission.max_live = 16;
  admission.rule = AdmissionRule::kRejectNewest;
  const Variant v =
      run_streaming(instance, "srpt", FaultPlan{}, admission);
  const SimStats& stats = v.result.stats;

  EXPECT_LE(stats.peak_live, 16u);
  EXPECT_GT(stats.rejections, 0u);
  EXPECT_EQ(stats.sheds, 0u);  // reject-newest never evicts residents
  EXPECT_EQ(stats.admitted + stats.rejections,
            static_cast<std::uint64_t>(instance.job_count()));
  EXPECT_EQ(stats.completed, stats.admitted);
  EXPECT_EQ(v.result.admission_log.size(), stats.rejections);

  // A refused job never completed and recorded no activity; the validator
  // checks the latter for every refused id.
  for (const AdmissionRecord& rec : v.result.admission_log) {
    EXPECT_FALSE(rec.shed);
    EXPECT_EQ(rec.reason, ReasonCode::kAdmissionQueueFull);
    EXPECT_EQ(v.result.completions[rec.job], -1.0);
  }
  const auto violations = validate_schedule(instance, v.result.schedule,
                                            FaultPlan{}, refused_ids(v.result));
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : to_string(violations.front()));
}

TEST(Admission, ShedInfeasibleEvictsHopelessResidents) {
  const Instance instance = overload_instance();
  AdmissionConfig admission;
  admission.rule = AdmissionRule::kShedInfeasible;
  admission.stretch_limit = 3.0;
  const Variant v =
      run_streaming(instance, "fcfs", FaultPlan{}, admission);
  const SimStats& stats = v.result.stats;

  EXPECT_GT(stats.sheds, 0u);
  EXPECT_EQ(stats.admitted,
            static_cast<std::uint64_t>(instance.job_count()));  // no caps set
  EXPECT_EQ(stats.completed + stats.sheds, stats.admitted);
  for (const AdmissionRecord& rec : v.result.admission_log) {
    EXPECT_TRUE(rec.shed);
    EXPECT_EQ(rec.reason, ReasonCode::kAdmissionDeadlineInfeasible);
    EXPECT_EQ(v.result.completions[rec.job], -1.0);
  }
  const auto violations = validate_schedule(instance, v.result.schedule,
                                            FaultPlan{}, refused_ids(v.result));
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : to_string(violations.front()));
}

TEST(Admission, RejectHopelessPrefersEvictingTheWorstResident) {
  const Instance instance = overload_instance();
  AdmissionConfig admission;
  admission.max_live = 8;
  admission.rule = AdmissionRule::kRejectHopeless;
  const Variant v =
      run_streaming(instance, "srpt", FaultPlan{}, admission);
  const SimStats& stats = v.result.stats;

  EXPECT_LE(stats.peak_live, 8u);
  // Under sustained overload the rule both evicts stale residents and
  // rejects arrivals whose own bound is no better.
  EXPECT_GT(stats.sheds, 0u);
  EXPECT_EQ(stats.admitted + stats.rejections,
            static_cast<std::uint64_t>(instance.job_count()));
  EXPECT_EQ(stats.completed + stats.sheds, stats.admitted);
  const auto violations = validate_schedule(instance, v.result.schedule,
                                            FaultPlan{}, refused_ids(v.result));
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : to_string(violations.front()));
}

TEST(Admission, MaterializedEngineHonorsAdmissionToo) {
  // Admission is a property of the engine, not of streaming: the
  // materialized path applies the same caps.
  const Instance instance = overload_instance();
  AdmissionConfig admission;
  admission.max_live = 16;
  const auto policy = make_policy("srpt");
  EngineConfig config;
  config.admission = admission;
  const SimResult result = simulate(instance, *policy, config);
  EXPECT_LE(result.stats.peak_live, 16u);
  EXPECT_GT(result.stats.rejections, 0u);
  EXPECT_EQ(result.stats.admitted + result.stats.rejections,
            static_cast<std::uint64_t>(instance.job_count()));
}

TEST(Admission, OnlineWatchdogStaysGreenWithRejections) {
  const Instance instance = overload_instance();
  AdmissionConfig admission;
  admission.max_live = 12;
  admission.rule = AdmissionRule::kRejectHopeless;

  const auto policy = make_policy("srpt");
  EngineConfig config;
  config.admission = admission;
  obs::InvariantWatchdog watchdog;
  config.watchdog = &watchdog;
  InstanceArrivalStream arrivals(instance);
  const Instance base = platform_of(instance);
  const SimResult result =
      simulate_stream(base, arrivals, *policy, config);

  EXPECT_GT(result.stats.rejections + result.stats.sheds, 0u);
  EXPECT_TRUE(watchdog.ok()) << [&] {
    std::ostringstream os;
    watchdog.report(os);
    return os.str();
  }();
}

// ---------------------------------------------------- adversarial churn

/// One enormous job released first, then a long train of tiny jobs that
/// each complete while it is still running. Completions therefore happen
/// maximally out of release order: id 0 outlives ids 1..n-1. The engine's
/// id -> slot map must track the COUNT of live ids — a map keyed on the id
/// span (everything from the oldest live id up) would hold ~n entries here
/// and the working set would grow linearly with the stream length.
Instance churn_instance(int n) {
  RandomInstanceConfig pcfg;
  pcfg.cloud_count = 2;
  pcfg.slow_edges = 1;
  pcfg.fast_edges = 1;
  Instance instance;
  instance.platform = make_random_platform(pcfg);

  Job big;
  big.id = 0;
  big.origin = 0;
  big.work = 1.0e5;  // outlives every small job below
  big.release = 0.0;
  instance.jobs.push_back(big);
  for (int i = 1; i < n; ++i) {
    Job small;
    small.id = i;
    small.origin = 1;
    small.work = 1.0;
    // Spaced far enough apart that each one is done (at any processor
    // speed of the platform) before the next arrives: the live set is the
    // big job plus at most a couple of small ones, forever.
    small.release = static_cast<Time>(i) * 25.0;
    instance.jobs.push_back(small);
  }
  return instance;
}

TEST(StreamingChurn, OutOfReleaseOrderCompletionsKeepTrackedSetFlat) {
  SimStats at[2];
  const int sizes[2] = {500, 5000};
  for (int round = 0; round < 2; ++round) {
    const Instance instance = churn_instance(sizes[round]);
    const auto policy = make_policy("srpt");
    EngineConfig config;
    config.record_schedule = false;
    config.record_completions = false;
    InstanceArrivalStream arrivals(instance);
    const Instance base = platform_of(instance);
    at[round] = simulate_stream(base, arrivals, *policy, config).stats;

    EXPECT_EQ(at[round].completed, static_cast<std::uint64_t>(sizes[round]));
    EXPECT_LE(at[round].peak_live, 4u) << "n = " << sizes[round];
    // The regression assertion: tracked ids stay within a retire-queue's
    // breadth of the live set, not of the stream.
    EXPECT_LE(at[round].peak_tracked, at[round].peak_live + 2)
        << "n = " << sizes[round];
  }
  // Flat means flat: 10x the stream length, identical high-water mark.
  EXPECT_EQ(at[0].peak_tracked, at[1].peak_tracked);
}

// ------------------------------------------------------------------ soak

TEST(StreamingSoak, MillionJobOverloadKeepsTheWorkingSetFlat) {
  // 1M Poisson arrivals at ~5x the platform's service rate, with faults,
  // admission and the online watchdog all on. Memory must be a function of
  // the admission cap, never of n: peak_live stays at the cap, and the
  // engine's slot table (schedule/completions recording off) never grows
  // past it.
  ArrivalConfig acfg;
  acfg.n = 1'000'000;
  acfg.family = ArrivalFamily::kPoisson;
  acfg.rate = 2.0;
  acfg.seed = 99;
  acfg.shape.edge_count = 4;

  RandomInstanceConfig pcfg;
  pcfg.cloud_count = 3;
  pcfg.slow_edges = 2;
  pcfg.fast_edges = 2;
  Instance base;
  base.platform = make_random_platform(pcfg);

  FaultConfig fault_cfg;
  fault_cfg.crash_rate = 0.0005;
  fault_cfg.mean_repair = 25.0;
  fault_cfg.loss_rate = 0.001;
  fault_cfg.horizon = 5000.0;
  Rng fault_rng(4321);

  EngineConfig config;
  config.record_schedule = false;
  config.record_completions = false;
  config.record_admission = false;
  config.faults = make_fault_plan(pcfg.cloud_count, fault_cfg, fault_rng);
  config.admission.max_live = 64;
  config.admission.rule = AdmissionRule::kRejectNewest;
  obs::InvariantWatchdog watchdog;
  config.watchdog = &watchdog;

  const auto arrivals = make_arrival_stream(acfg);
  const auto policy = make_policy("srpt");
  const SimResult result =
      simulate_stream(base, *arrivals, *policy, config);
  const SimStats& stats = result.stats;

  EXPECT_EQ(stats.admitted + stats.rejections, 1'000'000u);
  EXPECT_GT(stats.rejections, 0u);
  EXPECT_EQ(stats.completed, stats.admitted);
  EXPECT_LE(stats.peak_live, 64u);
  EXPECT_GT(stats.peak_live, 0u);
  EXPECT_TRUE(watchdog.ok()) << watchdog.violation_count();
  // Nothing was recorded, so the result carriers must be empty.
  EXPECT_EQ(result.schedule.job_count(), 0);
  EXPECT_TRUE(result.completions.empty());
  EXPECT_TRUE(result.admission_log.empty());
}

// ------------------------------------------------- round bookkeeping

/// Emits the given jobs in the given order: any unique, non-negative ids
/// with non-decreasing releases, which is all the stream contract asks.
class ListStream final : public ArrivalStream {
 public:
  explicit ListStream(std::vector<Job> jobs) : jobs_(std::move(jobs)) {}
  [[nodiscard]] std::string name() const override { return "list"; }
  [[nodiscard]] std::optional<Job> next() override {
    if (pos_ == jobs_.size()) return std::nullopt;
    return jobs_[pos_++];
  }

 private:
  std::vector<Job> jobs_;
  std::size_t pos_ = 0;
};

/// Every job on its origin edge with the higher id more urgent, so grant
/// order is the reverse of id order. Records each event batch and the
/// state slot of every job an event names.
class ReversedEdgePolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "reversed-edge"; }
  void decide(const SimView& view, const std::vector<Event>& events,
              std::vector<Directive>& out) override {
    batches.push_back(events);
    for (const Event& e : events) {
      if (e.job >= 0) slot_of[e.job] = view.slot(e.job);
    }
    for (const JobId id : view.live_jobs()) {
      out.push_back(Directive{id, kAllocEdge, -static_cast<double>(id),
                              ReasonCode::kFixedAssignment});
    }
  }

  std::vector<std::vector<Event>> batches;
  std::map<JobId, std::int32_t> slot_of;
};

// Jobs 1 and 2 finish at t = 4 on different edges, job 2 granted first.
// The completion batch the policy sees, and the trace's completion
// instants, must still come in ascending id — in streaming mode too,
// where job 2 recycles job 0's slot and so sits in a lower slot than job 1.
TEST(RoundBookkeeping, SimultaneousCompletionsFireInIdOrder) {
  Instance instance;
  instance.platform = Platform({1.0, 1.0}, 1);
  instance.jobs = {{0, 0, 1.0, 0.0, 0.0, 0.0},
                   {1, 1, 4.0, 0.0, 0.0, 0.0},
                   {2, 0, 2.0, 2.0, 0.0, 0.0},
                   // Released after t = 4, so a round still sees the
                   // completion batch of t = 4.
                   {3, 1, 1.0, 5.0, 0.0, 0.0}};
  for (const bool streaming : {false, true}) {
    SCOPED_TRACE(streaming ? "streaming" : "materialized");
    ReversedEdgePolicy policy;
    obs::MemoryTraceSink sink;
    EngineConfig config;
    config.trace = &sink;
    if (streaming) {
      InstanceArrivalStream arrivals(instance);
      (void)simulate_stream(platform_of(instance), arrivals, policy, config);
    } else {
      (void)simulate(instance, policy, config);
    }

    std::vector<JobId> at_four;
    for (const std::vector<Event>& batch : policy.batches) {
      if (batch.empty() || batch.front().time != 4.0) continue;
      for (const Event& e : batch) {
        EXPECT_EQ(e.kind, EventKind::kComputeDone);
        at_four.push_back(e.job);
      }
    }
    EXPECT_EQ(at_four, (std::vector<JobId>{1, 2}));

    std::vector<JobId> completed;
    for (const obs::TraceRecord& rec : sink.records()) {
      if (rec.kind == obs::TraceKind::kInstant &&
          rec.point == obs::TracePoint::kCompletion) {
        completed.push_back(rec.job);
      }
    }
    EXPECT_EQ(completed, (std::vector<JobId>{0, 1, 2, 3}));

    if (streaming) {
      // The case the id sort exists for: slot order != id order.
      EXPECT_EQ(policy.slot_of.at(2), policy.slot_of.at(0));
      EXPECT_LT(policy.slot_of.at(2), policy.slot_of.at(1));
    }
  }
}

/// Checks SimView::live_jobs() against a from-scratch derivation (the ids
/// of the pool's live slots, sorted) at every round, then lets the base
/// policy decide. Also measures the largest number of jobs that joined or
/// left the live set between two consecutive rounds.
class LiveListProbe final : public Policy {
 public:
  explicit LiveListProbe(std::unique_ptr<Policy> base)
      : base_(std::move(base)) {}
  [[nodiscard]] std::string name() const override { return base_->name(); }
  void reset(const Instance& instance) override { base_->reset(instance); }

  void decide(const SimView& view, const std::vector<Event>& events,
              std::vector<Directive>& out) override {
    const soa::StatePool& pool = view.pool();
    std::vector<JobId> expect;
    for (std::int32_t s = 0; s < static_cast<std::int32_t>(pool.size());
         ++s) {
      if (pool.live(s)) expect.push_back(pool.job(s).id);
    }
    std::sort(expect.begin(), expect.end());
    const std::span<const JobId> live = view.live_jobs();
    const bool same = std::equal(live.begin(), live.end(), expect.begin(),
                                 expect.end());
    if (!same && !first_mismatch) first_mismatch = view.now();
    for (const JobId id : live) {
      const std::int32_t s = view.slot(id);
      if (s < 0 || pool.job(s).id != id) ++bad_slots;
    }
    std::vector<JobId> changed;
    std::set_symmetric_difference(prev_.begin(), prev_.end(), expect.begin(),
                                  expect.end(), std::back_inserter(changed));
    std::size_t joined = 0;
    for (const JobId id : changed) {
      if (std::binary_search(expect.begin(), expect.end(), id)) ++joined;
    }
    max_joined = std::max(max_joined, joined);
    max_left = std::max(max_left, changed.size() - joined);
    prev_ = std::move(expect);
    ++rounds;
    base_->decide(view, events, out);
  }

  std::optional<Time> first_mismatch;
  std::size_t bad_slots = 0;
  std::size_t max_joined = 0;
  std::size_t max_left = 0;
  std::uint64_t rounds = 0;

 private:
  std::unique_ptr<Policy> base_;
  std::vector<JobId> prev_;
};

// Sparse ids in shuffled arrival order, three arrivals per instant and
// integer amounts on unit-speed processors (so completions coincide),
// under overload: the maintained live list must equal a fresh sort at
// every round — plain, with hopeless-resident evictions (a shed slot is
// recycled by the arrival of the same batch) and with deadline shedding.
TEST(RoundBookkeeping, LiveListMatchesAFreshSortEveryRound) {
  Instance base;
  base.platform = Platform({1.0, 1.0}, 2);
  Rng rng(2024);
  std::vector<JobId> ids(3000);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<JobId>(i);
  }
  for (std::size_t i = ids.size() - 1; i > 0; --i) {
    std::swap(ids[i], ids[static_cast<std::size_t>(
                          rng.uniform_int(0, static_cast<std::int64_t>(i)))]);
  }
  std::vector<Job> jobs;
  for (int i = 0; i < 600; ++i) {
    Job job;
    job.id = ids[static_cast<std::size_t>(i)];
    job.origin = static_cast<EdgeId>(rng.uniform_int(0, 1));
    job.work = static_cast<double>(rng.uniform_int(1, 3));
    job.release = static_cast<Time>(i / 3);
    job.up = static_cast<double>(rng.uniform_int(0, 1));
    job.down = static_cast<double>(rng.uniform_int(0, 1));
    jobs.push_back(job);
  }

  AdmissionConfig hopeless;
  hopeless.max_live = 6;
  hopeless.rule = AdmissionRule::kRejectHopeless;
  AdmissionConfig infeasible;
  infeasible.rule = AdmissionRule::kShedInfeasible;
  infeasible.stretch_limit = 3.0;
  const AdmissionConfig cases[] = {AdmissionConfig{}, hopeless, infeasible};
  for (const char* policy_name : {"srpt", "greedy"}) {
    for (std::size_t c = 0; c < std::size(cases); ++c) {
      SCOPED_TRACE(std::string(policy_name) + " case " + std::to_string(c));
      LiveListProbe probe(make_policy(policy_name));
      EngineConfig config;
      config.admission = cases[c];
      ListStream arrivals(jobs);
      const SimResult result = simulate_stream(base, arrivals, probe, config);

      EXPECT_GT(probe.rounds, 100U);
      EXPECT_FALSE(probe.first_mismatch.has_value())
          << "first mismatch at t=" << probe.first_mismatch.value_or(-1.0);
      EXPECT_EQ(probe.bad_slots, 0U);
      EXPECT_GE(probe.max_joined, 2U);
      EXPECT_GE(probe.max_left, 2U);
      if (c > 0) {
        EXPECT_GT(result.stats.sheds, 0U);
      }
    }
  }
}

}  // namespace
}  // namespace ecs
