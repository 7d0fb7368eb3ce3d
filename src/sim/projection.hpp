// projection.hpp - Completion-time projection for online heuristics.
//
// The paper's heuristics need to estimate when a job would finish on a
// candidate resource. Two levels of fidelity are provided:
//
//  * `uncontended_completion` ignores other jobs entirely: it is the
//    earliest conceivable finish time, matching the O(1) estimate behind
//    the complexity figures of Greedy / SRPT (section V-B, V-C).
//
//  * `ResourceClock` + `project` performs a non-preemptive list projection:
//    per-resource next-free counters (edge/cloud CPUs and the four one-port
//    directions) are advanced as candidate jobs are committed in priority
//    order. SSF-EDF's feasibility test (section V-D) walks jobs in deadline
//    order through this projection.
//
// Both honour the re-execution rule: projecting a job onto its *current*
// allocation uses its remaining amounts, any other target uses the full
// amounts from scratch.
#pragma once

#include <cstdint>
#include <vector>

#include "core/platform.hpp"
#include "sim/state.hpp"

namespace ecs {

/// Completion time of an activity of length `duration` started at `start`
/// when the resource is unavailable during `outages` (may be nullptr or
/// empty): processing suspends inside outage windows and resumes after
/// them — the engine's preempt-and-resume semantics.
[[nodiscard]] Time advance_through_outages(const IntervalSet* outages,
                                           Time start, double duration);

/// Earliest finish time of the job on `target`, starting at `now`,
/// assuming no contention. `target` is kAllocEdge or a cloud index.
/// The JobFields overload is primary (the field-view hot path); the
/// JobState form wraps it via fields_of(), so both are bit-identical.
[[nodiscard]] Time uncontended_completion(const Platform& platform,
                                          const JobFields& f, int target,
                                          Time now);
[[nodiscard]] Time uncontended_completion(const Platform& platform,
                                          const JobState& state, int target,
                                          Time now);

/// Outage-aware overload: accounts for the announced availability windows
/// of the target cloud processor (Instance::cloud_outages).
[[nodiscard]] Time uncontended_completion(const Instance& instance,
                                          const JobFields& f, int target,
                                          Time now);
[[nodiscard]] Time uncontended_completion(const Instance& instance,
                                          const JobState& state, int target,
                                          Time now);

/// Best uncontended finish time over all resources (origin edge, the
/// fastest cloud processor, or the job's current allocation).
[[nodiscard]] Time best_uncontended_completion(const Platform& platform,
                                               const JobFields& f, Time now);
[[nodiscard]] Time best_uncontended_completion(const Platform& platform,
                                               const JobState& state,
                                               Time now);

/// Index of the fastest cloud processor, or -1 when the platform has none.
[[nodiscard]] CloudId fastest_cloud(const Platform& platform);

/// Per-resource next-free times used by the list projection.
///
/// The clock is reusable: policies bind() it once per simulation (sizing
/// the per-resource arrays, capturing the outage windows) and then reset()
/// it at every projection pass. reset() is O(1) — each processor's slot
/// (its CPU and its two port directions) is epoch-tagged, a slot whose tag
/// predates the current epoch reads as `now` (i.e. all free), and commit()
/// re-tags exactly the slots it writes, seeding their untouched entries
/// with `now`.
/// A freshly reset() clock is therefore indistinguishable from a newly
/// constructed one, with no per-resource refill and no allocation.
class ResourceClock {
 public:
  /// Unbound clock; bind() must run before any projection.
  ResourceClock() = default;

  ResourceClock(const Platform& platform, Time now);

  /// Outage-aware construction: projections suspend inside the announced
  /// availability windows of each cloud processor, exactly mirroring the
  /// engine's enforcement.
  ResourceClock(const Instance& instance, Time now);

  /// Sizes the per-resource arrays for `platform` and resets to `now`.
  /// Allocates (once); reset() afterwards never does.
  void bind(const Platform& platform, Time now);

  /// Outage-aware bind: also captures `instance.cloud_outages` (the
  /// instance must outlive the clock's use).
  void bind(const Instance& instance, Time now);

  /// Restarts the clock at `now` with every resource free. O(1): bumps the
  /// epoch so all stale entries read as `now`.
  void reset(Time now) noexcept;

  /// True once bind() (or a sizing constructor) has run.
  [[nodiscard]] bool bound() const noexcept { return epoch_ != 0; }

  /// Completion time of the job on `target` given current clocks; does not
  /// modify the clocks. JobFields overloads are primary; the JobState
  /// forms wrap them via fields_of() (bit-identical paths).
  [[nodiscard]] Time project(const Platform& platform, const JobFields& f,
                             int target) const;
  [[nodiscard]] Time project(const Platform& platform, const JobState& state,
                             int target) const;

  /// Commits the job to `target`: advances the involved clocks and returns
  /// the completion time.
  Time commit(const Platform& platform, const JobFields& f, int target);
  Time commit(const Platform& platform, const JobState& state, int target);

  /// Target (kAllocEdge or cloud id) minimizing the projected completion,
  /// together with that completion time. Sticky: the job's current
  /// allocation is evaluated first, then the edge, then every other cloud
  /// in id order, and a later candidate wins only when it completes
  /// earlier by more than kDecisionMargin — so a policy merely
  /// re-confirming its decisions never discards progress through the
  /// re-execution rule. For an unassigned job this is the plain argmin
  /// (edge first, clouds in id order).
  ///
  /// The cloud scan is one hoisted loop: every cloud other than the
  /// current allocation restarts the job from scratch, so the full
  /// amounts, the origin's send/receive times and the speed array are
  /// read once, and each cloud evaluates the same expressions, in the same
  /// order, as project() — bit-identical completions.
  [[nodiscard]] std::pair<int, Time> best_target(const Platform& platform,
                                                 const JobFields& f) const;
  [[nodiscard]] std::pair<int, Time> best_target(const Platform& platform,
                                                 const JobState& state) const;

  [[nodiscard]] Time edge_cpu(EdgeId j) const {
    return rd(edges_, static_cast<std::size_t>(j)).cpu;
  }
  [[nodiscard]] Time cloud_cpu(CloudId k) const {
    return rd(clouds_, static_cast<std::size_t>(k)).cpu;
  }

  /// True when the job's *next* activity on `target` could begin
  /// immediately (at `now`) given the current clocks — i.e. the job would
  /// not merely be queued behind earlier commitments. Policies use this to
  /// restrict explicit (re)allocation directives to jobs that actually
  /// start, leaving queued jobs' progress untouched.
  [[nodiscard]] bool starts_now(const Platform& platform, const JobFields& f,
                                int target, Time now) const;
  [[nodiscard]] bool starts_now(const Platform& platform,
                                const JobState& state, int target,
                                Time now) const;

  /// True when no job's next activity can start at `now` on any target:
  /// every edge and cloud CPU is busy past `now`, uplinks are blocked on
  /// one side (every edge send port or every cloud receive port busy) and
  /// so are downlinks (every cloud send port or every edge receive port).
  /// commit() never moves a clock backwards, so a saturated clock stays
  /// saturated — starts_now() is then false for every job and target.
  /// O(edges + clouds), stopping at the first free CPU.
  [[nodiscard]] bool saturated(Time now) const;

 private:
  struct Projection {
    Time up_end;
    Time exec_end;
    Time done;
  };
  /// One processor's next-free times — its CPU, its send (outgoing) port
  /// and its receive (incoming) port — plus the epoch they were written
  /// in. A stale epoch means "never touched since reset" = all free.
  struct Slot {
    Time cpu = 0.0;
    Time send = 0.0;
    Time recv = 0.0;
    std::uint32_t epoch = 0;
  };
  // Unchecked indexing: these sit in the innermost projection loops and
  // every caller derives `i` from a validated target / platform bound.
  [[nodiscard]] Slot rd(const std::vector<Slot>& slots, std::size_t i) const {
    const Slot& s = slots[i];
    const bool current = s.epoch == epoch_;
    return Slot{current ? s.cpu : now_, current ? s.send : now_,
                current ? s.recv : now_, epoch_};
  }
  /// The slot, re-tagged for writing: a stale slot first reads as free.
  Slot& wr(std::vector<Slot>& slots, std::size_t i) {
    Slot& s = slots[i];
    if (s.epoch != epoch_) s = Slot{now_, now_, now_, epoch_};
    return s;
  }
  [[nodiscard]] Projection project_detail(const Platform& platform,
                                          const JobFields& f,
                                          int target) const;
  [[nodiscard]] const IntervalSet* outages_of(CloudId k) const {
    return outages_ == nullptr || outages_->empty() ? nullptr
                                                    : &outages_->at(k);
  }

  std::vector<Slot> edges_;
  std::vector<Slot> clouds_;
  const std::vector<IntervalSet>* outages_ = nullptr;
  Time now_ = 0.0;
  std::uint32_t epoch_ = 0;  ///< 0 = unbound; bind() starts at 1
};

/// Remaining amounts of the job if (re)started on `target`:
/// {uplink time, work, downlink time}. Applies the re-execution rule.
struct RemainingAmounts {
  double up = 0.0;
  double work = 0.0;
  double down = 0.0;
};
[[nodiscard]] RemainingAmounts remaining_on(const JobFields& f, int target);
[[nodiscard]] RemainingAmounts remaining_on(const JobState& state, int target);

}  // namespace ecs
