// selftest.cpp - Checks that the benchmark measures without disturbing.
//
//  1. Decorated and undecorated runs of every policy of the three workloads
//     (at small n) give byte-identical SimStats and completions.
//  2. TimedPolicy forwards name(), reset() and elision(); the engine elides
//     the same rounds through the decorator.
//  3. The output check bites: a run against its own reference passes, and
//     against a deliberately wrong reference digest reports failed worlds.
//
// Run: python3 perfbench/run.py --selftest   (exit status 0 = all passed)
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "harness.hpp"
#include "layers.hpp"
#include "sched/factory.hpp"
#include "sched/fixed.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workloads/arrivals.hpp"
#include "workloads/random_instances.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_stats(const ecs::SimStats& a, const ecs::SimStats& b) {
  return a.events == b.events && a.decisions == b.decisions &&
         a.reassignments == b.reassignments &&
         a.fault_aborts == b.fault_aborts &&
         a.message_losses == b.message_losses &&
         a.preemptions == b.preemptions &&
         a.uplink_retransmits == b.uplink_retransmits &&
         a.downlink_retransmits == b.downlink_retransmits &&
         a.max_queue_depth == b.max_queue_depth &&
         a.peak_live == b.peak_live && a.peak_tracked == b.peak_tracked &&
         a.admitted == b.admitted && a.completed == b.completed &&
         a.rejections == b.rejections && a.sheds == b.sheds &&
         same_bits(a.max_stretch, b.max_stretch) &&
         same_bits(a.policy_seconds, b.policy_seconds);
}

bool same_completions(const std::vector<ecs::Time>& a,
                      const std::vector<ecs::Time>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

/// 1a. Sweep workloads: every policy at every point, at n = 300.
void decorated_sweeps_match() {
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.streaming) continue;
    for (const SweepPointSpec& point : spec.points) {
      ecs::RandomInstanceConfig shape = point.instance;
      shape.n = 300;
      ecs::Rng rng(7);
      const ecs::Instance instance = ecs::make_random_instance(shape, rng);
      ecs::EngineConfig config;
      config.time_policy = false;
      for (const std::string& name : spec.policies) {
        const auto plain_policy = ecs::make_policy(name);
        const ecs::SimResult plain =
            ecs::simulate(instance, *plain_policy, config);
        const auto inner = ecs::make_policy(name);
        DecideStats stats;
        TimedPolicy timed(*inner, stats);
        const ecs::SimResult traced = ecs::simulate(instance, timed, config);
        check(same_stats(plain.stats, traced.stats) &&
                  same_completions(plain.completions, traced.completions) &&
                  stats.calls > 0,
              spec.name + " " + point.label + " " + name +
                  ": decorated run is byte-identical");
      }
    }
  }
}

/// 1b. The streaming workload, both decorators on, at n = 3000.
void decorated_stream_matches() {
  const WorkloadSpec& spec = find_workload("stream-overload");
  ecs::ArrivalConfig arrivals_config = spec.stream;
  arrivals_config.n = 3000;
  arrivals_config.seed = 11;
  ecs::Instance base;
  base.platform = ecs::make_random_platform(ecs::RandomInstanceConfig{});
  ecs::EngineConfig config;
  config.record_schedule = false;
  config.time_policy = false;
  config.admission = spec.admission;
  for (const std::string& name : spec.policies) {
    const auto plain_arrivals = ecs::make_arrival_stream(arrivals_config);
    const auto plain_policy = ecs::make_policy(name);
    const ecs::SimResult plain =
        ecs::simulate_stream(base, *plain_arrivals, *plain_policy, config);

    const auto inner_arrivals = ecs::make_arrival_stream(arrivals_config);
    TimedArrivalStream arrivals(*inner_arrivals);
    const auto inner = ecs::make_policy(name);
    DecideStats stats;
    TimedPolicy timed(*inner, stats);
    const ecs::SimResult traced =
        ecs::simulate_stream(base, arrivals, timed, config);
    check(same_stats(plain.stats, traced.stats) &&
              same_completions(plain.completions, traced.completions) &&
              plain.stats.rejections > 0,
          "stream-overload " + name + ": decorated run is byte-identical");
    check(arrivals.calls() > static_cast<std::uint64_t>(arrivals_config.n),
          "stream-overload: every next() call went through the decorator");
  }
}

/// A policy with a visible reset() and a non-default elision contract.
class ProbePolicy final : public ecs::Policy {
 public:
  [[nodiscard]] std::string name() const override { return "probe"; }
  void reset(const ecs::Instance& instance) override {
    resets += 1;
    last_jobs = instance.job_count();
  }
  [[nodiscard]] ecs::ElisionContract elision() const override {
    ecs::ElisionContract contract;
    contract.mode = ecs::ElisionContract::Mode::kEmptyUnlessTriggered;
    contract.triggers =
        ecs::ElisionContract::bit(ecs::EventKind::kRelease);
    return contract;
  }
  void decide(const ecs::SimView&, const std::vector<ecs::Event>&,
              std::vector<ecs::Directive>&) override {}

  int resets = 0;
  int last_jobs = -1;
};

/// 2. Forwarding of name(), reset() and elision().
void decorator_forwards() {
  ProbePolicy probe;
  DecideStats stats;
  TimedPolicy timed(probe, stats);
  check(timed.name() == "probe", "TimedPolicy forwards name()");
  const ecs::ElisionContract inner = probe.elision();
  const ecs::ElisionContract outer = timed.elision();
  check(outer.mode == inner.mode && outer.triggers == inner.triggers,
        "TimedPolicy forwards elision()");
  ecs::Instance instance;
  instance.platform = ecs::make_random_platform(ecs::RandomInstanceConfig{});
  instance.jobs.resize(3);
  timed.reset(instance);
  check(probe.resets == 1 && probe.last_jobs == 3,
        "TimedPolicy forwards reset()");
  // The engine must see the contract through the decorator: a policy
  // that opts into reuse has rounds elided, and the decorated run stays
  // byte-identical to the bare one.
  ecs::RandomInstanceConfig shape;
  shape.n = 300;
  ecs::Rng rng(3);
  const ecs::Instance cloud_instance = ecs::make_random_instance(shape, rng);
  std::vector<int> alloc;
  std::vector<double> priority;
  for (const ecs::Job& job : cloud_instance.jobs) {
    alloc.push_back(job.id % cloud_instance.platform.cloud_count());
    priority.push_back(static_cast<double>(job.id));
  }
  ecs::FixedPolicy plain(alloc, priority);
  const ecs::SimResult bare = ecs::simulate(cloud_instance, plain);
  ecs::FixedPolicy inner_fixed(alloc, priority);
  DecideStats fixed_stats;
  TimedPolicy timed_fixed(inner_fixed, fixed_stats);
  const ecs::SimResult decorated_run =
      ecs::simulate(cloud_instance, timed_fixed);
  check(fixed_stats.calls > 0 &&
            fixed_stats.calls < decorated_run.stats.decisions &&
            bare.stats.decisions == decorated_run.stats.decisions &&
            same_completions(bare.completions, decorated_run.completions),
        "the engine elides rounds through the decorator (" +
            std::to_string(fixed_stats.calls) + " decide() calls in " +
            std::to_string(decorated_run.stats.decisions) + " rounds)");
  for (const std::string& name : ecs::paper_policy_names()) {
    const auto policy = ecs::make_policy(name);
    TimedPolicy wrapped(*policy, stats);
    check(wrapped.elision().mode == policy->elision().mode &&
              wrapped.elision().triggers == policy->elision().triggers &&
              wrapped.name() == policy->name(),
          "TimedPolicy forwards " + name + "'s elision() and name()");
  }
}

/// 3. One round against its own digests passes; one wrong digest fails.
void wrong_reference_fails(const std::string& workload) {
  const WorkloadSpec& spec = find_workload(workload);
  Options options;
  options.seed = 5;
  options.seconds = 0.0;  // exactly one round
  options.trace = true;
  options.threads = 2;
  const Outcome first = run_workload(spec, options);
  check(first.failed == 0 && first.attempted > 0 && !first.round0.empty(),
        workload + ": one round runs clean");

  Reference reference{options.seed, first.round0};
  options.reference = &reference;
  const Outcome again = run_workload(spec, options);
  check(again.failed == 0 && again.round0 == first.round0,
        workload + ": a rerun matches its own reference");

  reference.entries.begin()->second += "x";
  const Outcome wrong = run_workload(spec, options);
  check(wrong.failed > 0 && !wrong.problems.empty(),
        workload + ": a wrong reference digest fails " +
            std::to_string(wrong.failed) + " world(s)");
  double ok_frac = 1.0;
  for (const Metric& m : wrong.end_to_end) {
    if (m.name == "ok_frac") ok_frac = m.value;
  }
  check(ok_frac < 1.0, workload + ": ok_frac drops below 1");
}

}  // namespace

int main() {
  decorated_sweeps_match();
  decorated_stream_matches();
  decorator_forwards();
  wrong_reference_fails("paper-sweep");
  wrong_reference_fails("stream-overload");
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
