// state.hpp - Dynamic per-job state inside the event-driven simulator.
//
// A live job is, at any instant, either idle (waiting for a resource) or
// performing exactly one activity: its uplink communication, its execution,
// or its downlink communication. The state tracks the remaining amounts for
// the job's *current* allocation; the paper's re-execution rule (no
// migration, restart from scratch allowed) is implemented by resetting these
// amounts whenever the allocation changes.
#pragma once

#include <string>

#include "core/job.hpp"
#include "core/schedule.hpp"
#include "core/time.hpp"

namespace ecs {

enum class Activity { kNone, kUplink, kCompute, kDownlink };

[[nodiscard]] std::string to_string(Activity activity);

/// The four event kinds of the paper (section V): release, end of uplink,
/// end of execution, end of downlink — plus the fault extension's two:
/// kFault (an unannounced cloud crash or a lost message; this is the first
/// time a policy learns about it) and kRecovery (a crashed cloud came back).
enum class EventKind {
  kRelease,
  kUplinkDone,
  kComputeDone,
  kDownlinkDone,
  kFault,
  kRecovery,
};

struct Event {
  EventKind kind;
  JobId job;  ///< affected job; -1 for cloud-level kFault / kRecovery
  Time time;
  /// Cloud processor involved in a kFault / kRecovery event; -1 otherwise.
  int cloud = -1;
};

[[nodiscard]] std::string to_string(EventKind kind);

struct JobState {
  Job job;                      ///< static parameters (copy for locality)
  double best_time = 0.0;       ///< min(t^e, t^c): stretch denominator
  int alloc = kAllocUnassigned; ///< current allocation (kAllocEdge / cloud)
  double rem_up = 0.0;          ///< remaining uplink time (cloud alloc only)
  double rem_work = 0.0;        ///< remaining work, in work units
  double rem_down = 0.0;        ///< remaining downlink time
  Activity active = Activity::kNone;  ///< what the job is doing right now
  /// Lazy progress accounting (engine bookkeeping; policies should treat
  /// both fields as opaque). While `active != kNone` the activity consumes
  /// its remaining amount at `rate` units per unit of simulated time, and
  /// the rem_* fields are authoritative only as of `last_update`. The
  /// engine materializes the elapsed progress with advance_progress() —
  /// per event this touches the *active* jobs only, never the whole
  /// instance, which is what makes the event loop O(active) per event.
  double rate = 0.0;
  Time last_update = 0.0;
  /// Engine bookkeeping: the job was mid-activity when the current decision
  /// round began. Consumed by arbitration to detect preemptions in O(1);
  /// policies should ignore it.
  bool was_active = false;
  bool released = false;
  bool done = false;
  Time completion = -1.0;
  int reassignments = 0;        ///< times progress was discarded

  [[nodiscard]] bool live() const noexcept { return released && !done; }

  /// The next activity the job needs on its current allocation, given its
  /// remaining amounts; kNone when everything is finished (or unallocated).
  [[nodiscard]] Activity next_activity() const noexcept {
    if (alloc == kAllocUnassigned || done) return Activity::kNone;
    if (alloc == kAllocEdge) {
      return amount_done(rem_work) ? Activity::kNone : Activity::kCompute;
    }
    if (!amount_done(rem_up)) return Activity::kUplink;
    if (!amount_done(rem_work)) return Activity::kCompute;
    if (!amount_done(rem_down)) return Activity::kDownlink;
    return Activity::kNone;
  }

  /// True when every amount of the current allocation is exhausted.
  [[nodiscard]] bool all_amounts_done() const noexcept {
    if (alloc == kAllocEdge) return amount_done(rem_work);
    return amount_done(rem_up) && amount_done(rem_work) &&
           amount_done(rem_down);
  }

  /// Materializes the active activity's progress up to `to`: subtracts
  /// rate * elapsed from the remaining amount of the current activity and
  /// moves the accounting anchor. A no-op for idle jobs.
  void advance_progress(Time to) noexcept;
};

/// The subset of per-job state every policy read path needs, gathered by
/// value (plus a pointer to the static Job). SimView::fields() fills it
/// straight from the engine's SoA component arrays — no AoS read cache in
/// between — and the projection / policy helpers take it as their primary
/// input. The JobState overloads of those helpers are thin wrappers over
/// fields_of(), so callers reading state() and callers reading fields()
/// run the same code and stay bit-identical by construction.
struct JobFields {
  const Job* job = nullptr;
  double best_time = 0.0;
  int alloc = kAllocUnassigned;
  double rem_up = 0.0;
  double rem_work = 0.0;
  double rem_down = 0.0;
};

[[nodiscard]] inline JobFields fields_of(const JobState& s) noexcept {
  return JobFields{&s.job,   s.best_time, s.alloc,
                   s.rem_up, s.rem_work,  s.rem_down};
}

}  // namespace ecs
