// Tests for the event-driven simulation engine (sim/engine.hpp).
//
// The engine is exercised with FixedPolicy (deterministic allocations and
// priorities) and small custom policies, and every produced schedule is
// cross-checked by the independent section III-B validator.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "core/metrics.hpp"
#include "core/validate.hpp"
#include "obs/metrics.hpp"
#include "sched/fixed.hpp"

namespace ecs {
namespace {

Instance one_edge_one_cloud(std::vector<Job> jobs, double speed = 0.5) {
  Instance instance;
  instance.platform = Platform({speed}, 1);
  instance.jobs = std::move(jobs);
  return instance;
}

TEST(Engine, SingleJobOnEdge) {
  const Instance instance =
      one_edge_one_cloud({{0, 0, 2.0, 1.0, 1.0, 1.0}});
  FixedPolicy policy({kAllocEdge}, {0.0});
  const SimResult result = simulate(instance, policy);
  require_valid_schedule(instance, result.schedule);
  // Released at 1, runs 2 / 0.5 = 4 time units.
  EXPECT_NEAR(result.completions[0], 5.0, 1e-9);
  EXPECT_EQ(result.schedule.job(0).final_run.alloc, kAllocEdge);
}

TEST(Engine, SingleJobOnCloud) {
  const Instance instance =
      one_edge_one_cloud({{0, 0, 2.0, 1.0, 1.5, 0.5}});
  FixedPolicy policy({0}, {0.0});
  const SimResult result = simulate(instance, policy);
  require_valid_schedule(instance, result.schedule);
  // 1 (release) + 1.5 (up) + 2 (work at speed 1) + 0.5 (down).
  EXPECT_NEAR(result.completions[0], 5.0, 1e-9);
  const RunRecord& run = result.schedule.job(0).final_run;
  EXPECT_NEAR(run.uplink.measure(), 1.5, 1e-9);
  EXPECT_NEAR(run.exec.measure(), 2.0, 1e-9);
  EXPECT_NEAR(run.downlink.measure(), 0.5, 1e-9);
}

TEST(Engine, CloudJobWithZeroCommunications) {
  const Instance instance =
      one_edge_one_cloud({{0, 0, 2.0, 0.0, 0.0, 0.0}});
  FixedPolicy policy({0}, {0.0});
  const SimResult result = simulate(instance, policy);
  require_valid_schedule(instance, result.schedule);
  EXPECT_NEAR(result.completions[0], 2.0, 1e-9);
  EXPECT_TRUE(result.schedule.job(0).final_run.uplink.empty());
  EXPECT_TRUE(result.schedule.job(0).final_run.downlink.empty());
}

TEST(Engine, PreemptionByHigherPriorityRelease) {
  // Long job starts at 0; short job released at 2 with a smaller priority
  // value preempts it; the long job resumes after.
  const Instance instance = one_edge_one_cloud(
      {{0, 0, 4.0, 0.0, 100.0, 100.0}, {1, 0, 0.5, 2.0, 100.0, 100.0}},
      /*speed=*/1.0);
  FixedPolicy policy({kAllocEdge, kAllocEdge}, {1.0, 0.0});
  const SimResult result = simulate(instance, policy);
  require_valid_schedule(instance, result.schedule);
  EXPECT_NEAR(result.completions[1], 2.5, 1e-9);  // preempts immediately
  EXPECT_NEAR(result.completions[0], 4.5, 1e-9);  // 4 work + 0.5 pause
  // The preempted job's execution is split into two intervals.
  EXPECT_EQ(result.schedule.job(0).final_run.exec.size(), 2u);
}

TEST(Engine, UplinksFromSameEdgeSerialize) {
  // Two jobs from the same edge to two different clouds: the edge send
  // port forces the uplinks one after the other.
  Instance instance;
  instance.platform = Platform({0.5}, 2);
  instance.jobs = {{0, 0, 1.0, 0.0, 2.0, 0.0}, {1, 0, 1.0, 0.0, 2.0, 0.0}};
  FixedPolicy policy({0, 1}, {0.0, 1.0});
  const SimResult result = simulate(instance, policy);
  require_valid_schedule(instance, result.schedule);
  // J0: up [0,2), exec [2,3). J1: up [2,4), exec [4,5).
  EXPECT_NEAR(result.completions[0], 3.0, 1e-9);
  EXPECT_NEAR(result.completions[1], 5.0, 1e-9);
}

TEST(Engine, UplinksToSameCloudSerialize) {
  // Two jobs from different edges to the same cloud: its receive port
  // serializes the uplinks.
  Instance instance;
  instance.platform = Platform({0.5, 0.5}, 1);
  instance.jobs = {{0, 0, 1.0, 0.0, 2.0, 0.0}, {1, 1, 1.0, 0.0, 2.0, 0.0}};
  FixedPolicy policy({0, 0}, {0.0, 1.0});
  const SimResult result = simulate(instance, policy);
  require_valid_schedule(instance, result.schedule);
  EXPECT_NEAR(result.completions[0], 3.0, 1e-9);
  // J1 uplink [2,4), exec [4,5).
  EXPECT_NEAR(result.completions[1], 5.0, 1e-9);
}

TEST(Engine, FullDuplexUplinkOverlapsDownlink) {
  // J0's downlink and J1's uplink share the edge-cloud pair and overlap.
  Instance instance;
  instance.platform = Platform({0.5}, 1);
  instance.jobs = {{0, 0, 1.0, 0.0, 1.0, 5.0}, {1, 0, 1.0, 0.0, 5.0, 0.0}};
  FixedPolicy policy({0, 0}, {0.0, 1.0});
  const SimResult result = simulate(instance, policy);
  require_valid_schedule(instance, result.schedule);
  // J0: up [0,1), exec [1,2), down [2,7).
  // J1: up [1,6) — overlaps J0's downlink (full duplex) — exec [6,7).
  EXPECT_NEAR(result.completions[0], 7.0, 1e-9);
  EXPECT_NEAR(result.completions[1], 7.0, 1e-9);
}

TEST(Engine, ComputeOverlapsCommunication) {
  // While J0 computes on the cloud, J1's uplink proceeds.
  Instance instance;
  instance.platform = Platform({0.5}, 2);
  instance.jobs = {{0, 0, 4.0, 0.0, 1.0, 0.0}, {1, 0, 1.0, 0.0, 3.0, 0.0}};
  FixedPolicy policy({0, 1}, {0.0, 1.0});
  const SimResult result = simulate(instance, policy);
  require_valid_schedule(instance, result.schedule);
  // J0: up [0,1), exec [1,5). J1: up [1,4), exec on cloud 1 [4,5).
  EXPECT_NEAR(result.completions[0], 5.0, 1e-9);
  EXPECT_NEAR(result.completions[1], 5.0, 1e-9);
}

/// True when job `id` is released and unfinished. Jobs not yet released
/// and retired jobs hold no state slot, so ask the live list.
bool is_live(const SimView& view, JobId id) {
  const std::span<const JobId> live = view.live_jobs();
  return std::binary_search(live.begin(), live.end(), id);
}

// Policy that moves its single job from the edge to the cloud at t >= 2
// (first event after), exercising the re-execution rule.
class SwitchPolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "Switch"; }
  void decide(const SimView& view, const std::vector<Event>& events,
              std::vector<Directive>& out) override {
    (void)events;
    if (!is_live(view, 0)) return;
    const int target = view.now() >= 2.0 ? 0 : kAllocEdge;
    out.push_back(Directive{0, target, 0.0});
  }
};

TEST(Engine, ReexecutionDiscardsProgress) {
  // Job: work 4, release 0, up = dn = 1. A second job triggers an event at
  // t = 2, at which the switch policy moves job 0 to the cloud.
  Instance instance;
  instance.platform = Platform({1.0}, 1);
  instance.jobs = {{0, 0, 4.0, 0.0, 1.0, 1.0}, {1, 0, 2.0, 2.0, 1.0, 1.0}};

  class TwoJobSwitch final : public Policy {
   public:
    [[nodiscard]] std::string name() const override { return "Switch2"; }
    void decide(const SimView& view, const std::vector<Event>& events,
                std::vector<Directive>& out) override {
      (void)events;
      if (is_live(view, 0)) {
        out.push_back(
            Directive{0, view.now() >= 2.0 ? 0 : kAllocEdge, 0.0});
      }
      if (is_live(view, 1)) {
        out.push_back(Directive{1, kAllocEdge, 1.0});
      }
    }
  };

  TwoJobSwitch policy;
  const SimResult result = simulate(instance, policy);
  require_valid_schedule(instance, result.schedule);
  // Job 0 computed [0,2) on the edge (progress 2 of 4), then restarted on
  // the cloud from scratch: up [2,3), exec [3,7), down [7,8).
  EXPECT_NEAR(result.completions[0], 8.0, 1e-9);
  ASSERT_EQ(result.schedule.job(0).abandoned.size(), 1u);
  EXPECT_EQ(result.schedule.job(0).abandoned[0].alloc, kAllocEdge);
  EXPECT_NEAR(result.schedule.job(0).abandoned[0].exec.measure(), 2.0, 1e-9);
  EXPECT_EQ(result.stats.reassignments, 1u);
  // Job 1 got the edge once job 0 left: [2,4).
  EXPECT_NEAR(result.completions[1], 4.0, 1e-9);
}

TEST(Engine, WorkConservationRunsUnselectedAllocatedJobs) {
  // The policy only ever gives a directive for job 0 (edge). Job 1 was
  // allocated to the edge in the first call and then never mentioned again:
  // the engine must still run it when the edge becomes free.
  Instance instance;
  instance.platform = Platform({1.0}, 1);
  instance.jobs = {{0, 0, 2.0, 0.0, 1.0, 1.0}, {1, 0, 3.0, 0.0, 1.0, 1.0}};

  class OneShot final : public Policy {
   public:
    [[nodiscard]] std::string name() const override { return "OneShot"; }
    void reset(const Instance&) override { first_ = true; }
    void decide(const SimView& view, const std::vector<Event>& events,
                std::vector<Directive>& out) override {
      (void)events;
      if (is_live(view, 0)) out.push_back(Directive{0, kAllocEdge, 0.0});
      if (first_) {
        if (is_live(view, 1)) {
          out.push_back(Directive{1, kAllocEdge, 1.0});
        }
        first_ = false;
      }
    }

   private:
    bool first_ = true;
  };

  OneShot policy;
  const SimResult result = simulate(instance, policy);
  require_valid_schedule(instance, result.schedule);
  EXPECT_NEAR(result.completions[0], 2.0, 1e-9);
  EXPECT_NEAR(result.completions[1], 5.0, 1e-9);
}

TEST(Engine, StallIsDetected) {
  Instance instance;
  instance.platform = Platform({1.0}, 1);
  instance.jobs = {{0, 0, 2.0, 0.0, 1.0, 1.0}};

  class ParkAll final : public Policy {
   public:
    [[nodiscard]] std::string name() const override { return "ParkAll"; }
    void decide(const SimView&, const std::vector<Event>&,
                std::vector<Directive>&) override {
      // never allocates anything
    }
  };

  ParkAll policy;
  EXPECT_THROW((void)simulate(instance, policy), std::runtime_error);
  // The diagnostic must name the policy, the time, the live-job count and
  // the offending jobs themselves.
  try {
    (void)simulate(instance, policy);
    FAIL() << "expected a stall";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stalled at t=0"), std::string::npos) << what;
    EXPECT_NE(what.find("ParkAll"), std::string::npos) << what;
    EXPECT_NE(what.find("1 live job(s)"), std::string::npos) << what;
    EXPECT_NE(what.find("J0(unassigned"), std::string::npos) << what;
  }
}

TEST(Engine, EventCapStopsThrashingPolicies) {
  Instance instance;
  instance.platform = Platform({1.0}, 2);
  instance.jobs = {{0, 0, 100.0, 0.0, 1.0, 1.0},
                   {1, 0, 1.0, 0.0, 1.0, 1.0}};

  // Pathological: flips job 0 between the two clouds at every event, so it
  // never completes.
  class Thrash final : public Policy {
   public:
    [[nodiscard]] std::string name() const override { return "Thrash"; }
    void reset(const Instance&) override { flip_ = 0; }
    void decide(const SimView& view, const std::vector<Event>& events,
                std::vector<Directive>& out) override {
      (void)events;
      if (is_live(view, 0)) out.push_back(Directive{0, flip_, 0.0});
      if (is_live(view, 1)) out.push_back(Directive{1, kAllocEdge, 1.0});
      flip_ = 1 - flip_;
    }

   private:
    int flip_ = 0;
  };

  Thrash policy;
  EngineConfig config;
  config.max_events = 500;
  EXPECT_THROW((void)simulate(instance, policy, config), std::runtime_error);
  // The diagnostic must name the cap, the policy and the job still alive.
  try {
    (void)simulate(instance, policy, config);
    FAIL() << "expected the event cap to trip";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("event cap (500)"), std::string::npos) << what;
    EXPECT_NE(what.find("Thrash"), std::string::npos) << what;
    EXPECT_NE(what.find("reassignment"), std::string::npos) << what;
    EXPECT_NE(what.find("J0("), std::string::npos) << what;
  }
}

TEST(Engine, CompletionsMatchScheduleCompletions) {
  const Instance instance = one_edge_one_cloud(
      {{0, 0, 2.0, 0.0, 1.0, 1.0}, {1, 0, 3.0, 1.0, 1.0, 1.0}});
  FixedPolicy policy({kAllocEdge, 0}, {0.0, 1.0});
  const SimResult result = simulate(instance, policy);
  require_valid_schedule(instance, result.schedule);
  for (int i = 0; i < 2; ++i) {
    const auto completion = result.schedule.job(i).completion();
    ASSERT_TRUE(completion.has_value());
    EXPECT_NEAR(result.completions[i], *completion, 1e-9);
  }
}

TEST(Engine, SimultaneousReleasesAllFire) {
  Instance instance;
  instance.platform = Platform({1.0}, 1);
  instance.jobs = {{0, 0, 1.0, 0.0, 0.5, 0.5},
                   {1, 0, 1.0, 0.0, 0.5, 0.5},
                   {2, 0, 1.0, 0.0, 0.5, 0.5}};
  FixedPolicy policy({kAllocEdge, 0, kAllocEdge}, {0.0, 1.0, 2.0});
  const SimResult result = simulate(instance, policy);
  require_valid_schedule(instance, result.schedule);
  EXPECT_NEAR(result.completions[0], 1.0, 1e-9);
  EXPECT_NEAR(result.completions[1], 2.0, 1e-9);  // 0.5 + 1 + 0.5
  EXPECT_NEAR(result.completions[2], 2.0, 1e-9);  // edge after J0
}

TEST(Engine, RecordScheduleOffStillFillsCompletions) {
  const Instance instance =
      one_edge_one_cloud({{0, 0, 2.0, 0.0, 1.0, 1.0}});
  FixedPolicy policy({0}, {0.0});
  EngineConfig config;
  config.record_schedule = false;
  const SimResult result = simulate(instance, policy, config);
  EXPECT_NEAR(result.completions[0], 4.0, 1e-9);
  EXPECT_EQ(result.schedule.job_count(), 0);
}

TEST(Engine, InvalidCloudTargetRejected) {
  const Instance instance =
      one_edge_one_cloud({{0, 0, 2.0, 0.0, 1.0, 1.0}});
  FixedPolicy policy({5}, {0.0});  // only one cloud
  EXPECT_THROW((void)simulate(instance, policy), std::runtime_error);
}

TEST(Engine, StatsCountEventsAndDecisions) {
  const Instance instance =
      one_edge_one_cloud({{0, 0, 2.0, 0.0, 1.0, 1.0}});
  FixedPolicy policy({0}, {0.0});
  const SimResult result = simulate(instance, policy);
  // Release, uplink-done, compute-done, downlink-done.
  EXPECT_EQ(result.stats.events, 4u);
  // One decision per event batch except the final one (everything is done,
  // no decision needed): release, uplink-done, compute-done.
  EXPECT_EQ(result.stats.decisions, 3u);
}

TEST(Engine, StatsMatchMetricsRegistryTotals) {
  // J1 (higher priority) preempts J0 on the single edge at t=2.
  const Instance instance = one_edge_one_cloud(
      {{0, 0, 4.0, 0.0, 100.0, 100.0}, {1, 0, 0.5, 2.0, 100.0, 100.0}}, 1.0);
  FixedPolicy policy({kAllocEdge, kAllocEdge}, {1.0, 0.0});
  obs::MetricsRegistry registry;
  EngineConfig config;
  config.metrics = &registry;
  const SimResult result = simulate(instance, policy, config);
  EXPECT_EQ(result.stats.preemptions, 1u);
  EXPECT_EQ(registry.counter_value("engine.events"), result.stats.events);
  EXPECT_EQ(registry.counter_value("engine.decisions"),
            result.stats.decisions);
  EXPECT_EQ(registry.counter_value("engine.preemptions"),
            result.stats.preemptions);
  EXPECT_EQ(registry.counter_value("engine.reassignments"),
            result.stats.reassignments);
  EXPECT_EQ(static_cast<std::uint64_t>(
                registry.gauge_value("engine.ready_queue_depth").max),
            result.stats.max_queue_depth);
  EXPECT_EQ(registry.histogram_value("job.stretch").count, 2u);
}

TEST(Engine, MessageLossesSplitIntoRetransmitCounters) {
  const Instance instance =
      one_edge_one_cloud({{0, 0, 1.0, 0.0, 2.0, 2.0}});
  FixedPolicy policy({0}, {0.0});
  obs::MetricsRegistry registry;
  EngineConfig config;
  config.metrics = &registry;
  config.faults.faults = {
      {FaultKind::kUplinkLoss, 0, 1.0, 1.0},
      {FaultKind::kDownlinkLoss, 0, 5.0, 5.0},
  };
  const SimResult result = simulate(instance, policy, config);
  // Uplink 0..2 lost at 1, restarts 1..3; exec 3..4; downlink 4..6 lost at
  // 5, restarts 5..7.
  EXPECT_NEAR(result.completions[0], 7.0, 1e-9);
  EXPECT_EQ(result.stats.uplink_retransmits, 1u);
  EXPECT_EQ(result.stats.downlink_retransmits, 1u);
  EXPECT_EQ(result.stats.message_losses, 2u);
  EXPECT_EQ(registry.counter_value("engine.uplink_retransmits"), 1u);
  EXPECT_EQ(registry.counter_value("engine.downlink_retransmits"), 1u);
  EXPECT_EQ(registry.counter_value("engine.message_losses"), 2u);
}

TEST(Engine, MaxQueueDepthTracksWaitingJobs) {
  // Three zero-comm jobs released together onto one edge: two wait while
  // the first executes.
  Instance instance;
  instance.platform = Platform({1.0}, 1);
  instance.jobs = {{0, 0, 1.0, 0.0, 0.0, 0.0},
                   {1, 0, 1.0, 0.0, 0.0, 0.0},
                   {2, 0, 1.0, 0.0, 0.0, 0.0}};
  FixedPolicy policy({kAllocEdge, kAllocEdge, kAllocEdge}, {0.0, 1.0, 2.0});
  const SimResult result = simulate(instance, policy);
  EXPECT_EQ(result.stats.max_queue_depth, 2u);
}

}  // namespace
}  // namespace ecs
