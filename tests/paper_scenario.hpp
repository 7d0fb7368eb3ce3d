// paper_scenario.hpp - A heavy-load decision round on the paper's platform,
// for driving decide() directly.
//
// The paper platform (20 cloud processors, 10 slow + 10 fast edges) at
// CCR 1 and load 2 — the Fig. 2(b) heavy point — with every job released
// and live at once. Unlike an all-unassigned round, most jobs are already
// placed and partially progressed, the way a long run looks mid-flight:
// about a third on their origin edge with part of the work done, about
// half on a cloud somewhere in their uplink / compute / downlink, the rest
// unassigned. That is the state in which Greedy and SRPT keep picking
// until every job has been picked (queued jobs pick kTargetKeep) and in
// which SSF-EDF projects every job onto every cloud.
//
// Shared by the policy-equivalence suite and the policy micro-benchmark;
// deterministic in (live, seed). pool_of() turns hand-built JobStates into
// the StatePool a SimView reads.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/policy.hpp"
#include "util/rng.hpp"
#include "workloads/random_instances.hpp"

namespace ecs {

/// A StatePool whose slot i holds states[i], filled through the pool's
/// component accessors: the backing of every hand-built SimView.
inline soa::StatePool pool_of(const std::vector<JobState>& states) {
  soa::StatePool pool;
  pool.reset(states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    const JobState& s = states[i];
    const auto slot = static_cast<std::int32_t>(i);
    pool.job(slot) = s.job;
    pool.best_time(slot) = s.best_time;
    pool.alloc(slot) = s.alloc;
    pool.rem_up(slot) = s.rem_up;
    pool.rem_work(slot) = s.rem_work;
    pool.rem_down(slot) = s.rem_down;
    pool.active(slot) = s.active;
    pool.rate(slot) = s.rate;
    pool.last_update(slot) = s.last_update;
    pool.was_active(slot) = s.was_active ? 1 : 0;
    pool.released(slot) = s.released ? 1 : 0;
    pool.done(slot) = s.done ? 1 : 0;
    pool.completion(slot) = s.completion;
    pool.reassignments(slot) = s.reassignments;
  }
  return pool;
}

struct PaperDecideScenario {
  explicit PaperDecideScenario(int live_count, std::uint64_t seed = 42) {
    RandomInstanceConfig cfg;  // the paper platform
    cfg.n = live_count;
    cfg.ccr = 1.0;
    cfg.load = 2.0;
    Rng rng(seed);
    instance = make_random_instance(cfg, rng);

    for (const Job& job : instance.jobs) {
      live.push_back(job.id);
      now = std::max(now, job.release);
    }
    const int clouds = instance.platform.cloud_count();
    for (const Job& job : instance.jobs) {
      JobState s;
      s.job = job;
      s.best_time = instance.platform.best_time(job);
      s.released = true;
      s.rem_work = job.work;
      const double placement = rng.uniform(0.0, 1.0);
      const double left = rng.uniform(0.05, 1.0);  // share still to do
      if (placement < 0.35) {
        s.alloc = kAllocEdge;
        s.rem_work = job.work * left;
      } else if (placement < 0.85) {
        s.alloc = static_cast<int>(rng.uniform_int(0, clouds - 1));
        s.rem_up = job.up;
        s.rem_down = job.down;
        const double phase = rng.uniform(0.0, 1.0);
        if (phase < 0.25) {
          s.rem_up = job.up * left;
        } else if (phase < 0.85) {
          s.rem_up = 0.0;
          s.rem_work = job.work * left;
        } else {
          s.rem_up = 0.0;
          s.rem_work = 0.0;
          s.rem_down = job.down * left;
        }
      }
      states.push_back(s);
    }
    events.push_back(
        Event{EventKind::kRelease, instance.jobs.back().id, now, -1});
  }

  Instance instance;
  std::vector<JobState> states;
  std::vector<JobId> live;
  std::vector<Event> events;  ///< one release: SSF-EDF re-plans deadlines
  Time now = 0.0;
};

}  // namespace ecs
