// common.hpp - Shared helpers for the scheduling policies.
#pragma once

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "core/metrics.hpp"
#include "sim/policy.hpp"
#include "sim/projection.hpp"

namespace ecs {

/// Picks the target minimizing the projected completion of the job against
/// `clock`, preferring the job's current allocation on ties (so that a
/// policy that is merely re-confirming its decisions never discards
/// progress through the re-execution rule). Forwards to the clock's
/// hoisted cloud-scan kernel, ResourceClock::best_target.
[[nodiscard]] inline std::pair<int, Time> best_target_sticky(
    const Platform& platform, const ResourceClock& clock, const JobFields& f) {
  return clock.best_target(platform, f);
}
[[nodiscard]] inline std::pair<int, Time> best_target_sticky(
    const Platform& platform, const ResourceClock& clock,
    const JobState& state) {
  return clock.best_target(platform, state);
}

/// True when the event batch contains a job release.
[[nodiscard]] bool contains_release(const std::vector<Event>& events);

/// A job with its ordering key (deadline for SSF-EDF, release for FCFS).
struct OrderedJob {
  JobId id = -1;
  double key = 0.0;
};

/// Sorts by (key, id) — the canonical tie-break every ordered pass uses,
/// so decide() and feasibility probes can never disagree on ordering.
void sort_ordered(std::vector<OrderedJob>& order);

/// Same result as sort_ordered, for an order that was sorted under
/// slightly different keys (SSF-EDF re-keys one live set per feasibility
/// probe): an insertion sort, linear when few pairs swapped, that hands
/// over to sort_ordered once it has moved a few entries per element.
void resort_ordered(std::vector<OrderedJob>& order);

/// Fastest cloud still marked free in `cloud_free`, preferring clouds
/// available right now; clouds inside an availability outage serve only as
/// a fallback when nothing else is free. Returns -1 when no cloud is free.
/// Shared by the Greedy and SRPT pick loops.
[[nodiscard]] int pick_fresh_cloud(const SimView& view,
                                   const std::vector<char>& cloud_free);

/// Groups the clouds on which every job's uncontended estimate is the same:
/// `out[k]` is the lowest cloud id with k's speed, provided neither cloud
/// has announced outages (the estimate depends on the cloud only through
/// its speed and its outage windows); a cloud with outages is its own
/// class. On the paper platform every cloud falls in class 0.
void uncontended_cloud_classes(const Instance& instance,
                               std::vector<CloudId>& out);

/// One live job's row in the option table of a Greedy/SRPT pick loop. The
/// loop repeats a best-pick over (job, resource) until resources run out,
/// but each option's value — an uncontended completion, or the stretch
/// derived from it — is a pure function of (job, target, now), so it is
/// evaluated once per decide() and the picks only combine cached doubles
/// with the current free flags.
///
/// Those flags (and with them the fresh cloud) change only when a pick
/// claims a resource, at most edge_count + cloud_count times per decide().
/// The pick loops therefore combine the rows' options with the flags into
/// a candidate list once per claim and let the picks in between — jobs
/// waiting for their own resource with kTargetKeep — scan that list.
/// Candidates stay in live order and a picked one is overwritten with a
/// value that never wins, so every scan visits the candidates in the same
/// order as a loop that erases them.
struct PickOption {
  JobId id = -1;
  EdgeId origin = 0;
  int alloc = kAllocUnassigned;
  CloudId fresh_class = -1;  ///< class `fresh` was evaluated on; -1 = none
  double best_time = 0.0;
  double keep = 0.0;   ///< on the current allocation (also kTargetKeep)
  double edge = 0.0;   ///< restarting on the origin edge
  double fresh = 0.0;  ///< restarting on a cloud of `fresh_class`
  bool picked = false;
};

/// Fills `options` with one row per live job, in live order, evaluating
/// the keep option (assigned jobs) and the edge option (jobs not already
/// on the edge) with `value(fields, target)`. No allocation once warm.
template <typename ValueFn>
void gather_pick_options(const SimView& view, std::vector<PickOption>& options,
                         ValueFn&& value) {
  const std::span<const JobId> live = view.live_jobs();
  options.resize(live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    const JobFields f = view.fields(live[i]);
    PickOption& o = options[i];
    o.id = live[i];
    o.origin = f.job->origin;
    o.alloc = f.alloc;
    o.fresh_class = -1;
    o.best_time = f.best_time;
    o.keep = f.alloc != kAllocUnassigned ? value(f, f.alloc) : kTimeInfinity;
    o.edge = f.alloc != kAllocEdge ? value(f, kAllocEdge) : kTimeInfinity;
    o.picked = false;
  }
}

/// The row's value on the fresh cloud `fresh`, of class `fresh_class`
/// (uncontended_cloud_classes). Keyed by the class: it is re-evaluated
/// only when pick_fresh_cloud has moved to a cloud of another class, which
/// happens at most cloud_count times per decide() — and never on a
/// platform of identical, outage-free clouds.
template <typename ValueFn>
[[nodiscard]] double fresh_option(const SimView& view, PickOption& o,
                                  CloudId fresh, CloudId fresh_class,
                                  ValueFn&& value) {
  if (o.fresh_class != fresh_class) {
    o.fresh = value(view.fields(o.id), fresh);
    o.fresh_class = fresh_class;
  }
  return o.fresh;
}

/// Exponential doubling followed by bisection for the smallest stretch
/// accepted by `feasible`, starting from the lower bound `lo`, to relative
/// precision `epsilon`, spending at most `max_iterations` probes overall.
/// Returns the smallest stretch that was actually verified feasible (if the
/// doubling phase exhausts the probe budget, the last — largest — probe is
/// returned even if unverified; callers treat the result as best-effort).
/// Shared by SSF-EDF and Edge-Only. A template (not std::function) so the
/// zero-allocation decide() paths never pay a closure heap allocation.
template <typename FeasibleFn>
[[nodiscard]] double min_feasible_stretch(double lo, double epsilon,
                                          int max_iterations,
                                          FeasibleFn&& feasible) {
  double hi = std::max(lo, 1.0);
  int iterations = 0;
  while (!feasible(hi) && iterations < max_iterations) {
    hi *= 2.0;
    ++iterations;
  }
  double best = hi;
  double cursor = lo;
  while ((best - cursor) > epsilon * best && iterations < max_iterations) {
    const double mid = 0.5 * (cursor + best);
    if (feasible(mid)) {
      best = mid;
    } else {
      cursor = mid;
    }
    ++iterations;
  }
  return best;
}

/// Warm-started variant of min_feasible_stretch, bit-compatible with the
/// cold search: it returns the exact value the cold search would (same
/// bracket, same midpoint sequence, same probe budget accounting) while
/// usually spending far fewer probes on the doubling phase.
///
/// The cold search scans the rung ladder hi = base * 2^k (base =
/// max(lo, 1.0)) upward from k = 0 for the first feasible rung, paying one
/// probe per rung. The warm search instead jumps to the rung suggested by
/// `warm_hint` (the previous search's result — target stretches drift
/// slowly between consecutive releases) and walks down while the rung below
/// stays feasible, or up until a rung is feasible. Because feasibility is
/// monotone along the ladder (the property the bisection itself relies on),
/// both scans identify the same rung k*; rung values are exact (multiplying
/// by 2.0 is exact in binary floating point), and the bisection is then
/// entered with iterations = k* — exactly the number of failed probes the
/// cold doubling phase would have consumed — so the midpoint sequence and
/// the budget cutoff match the cold search bit for bit. `warm_hint <= 0`
/// (no previous search) falls back to the cold ladder scan.
template <typename FeasibleFn>
[[nodiscard]] double min_feasible_stretch_warm(double lo, double epsilon,
                                               int max_iterations,
                                               double warm_hint,
                                               FeasibleFn&& feasible) {
  const double base = std::max(lo, 1.0);
  int k = 0;         // first-feasible rung index (== cold's failed probes)
  double hi = base;  // rung(k)
  if (warm_hint <= 0.0) {
    // Cold ladder scan (identical to min_feasible_stretch's first loop).
    while (!feasible(hi) && k < max_iterations) {
      hi *= 2.0;
      ++k;
    }
  } else {
    // Start at the rung covering the hint: smallest k with rung(k) >= hint.
    while (hi < warm_hint && k < max_iterations) {
      hi *= 2.0;
      ++k;
    }
    if (k < max_iterations && feasible(hi)) {
      // Walk down: k* is the lowest feasible rung.
      while (k > 0) {
        const double below = 0.5 * hi;  // exact: rung(k-1)
        if (!feasible(below)) break;
        hi = below;
        --k;
      }
    } else {
      // Walk up: k* is the first feasible rung above the hint (under
      // ladder monotonicity nothing below the hint rung is feasible).
      bool hi_feasible = false;
      while (!hi_feasible && k < max_iterations) {
        hi *= 2.0;
        ++k;
        if (k < max_iterations) hi_feasible = feasible(hi);
      }
    }
  }
  // Bisection, bit-identical to the cold search: same (cursor, best)
  // bracket and the same remaining probe budget (max_iterations - k).
  int iterations = k;
  double best = hi;
  double cursor = lo;
  while ((best - cursor) > epsilon * best && iterations < max_iterations) {
    const double mid = 0.5 * (cursor + best);
    if (feasible(mid)) {
      best = mid;
    } else {
      cursor = mid;
    }
    ++iterations;
  }
  return best;
}

/// List assignment shared by the EDF-style policies: walks jobs in the
/// given order through a contention-aware projection, placing each on the
/// processor where it completes earliest. Only jobs whose next activity
/// would start *immediately* receive an explicit (re)allocation directive;
/// queued jobs get kTargetKeep, so their progress is never discarded just
/// because the projection shuffled the queue behind the running jobs. All
/// directives carry the rank in `order` as priority.
///
/// Provenance: immediate placements are annotated with `local_reason`
/// (edge target) or `offload_reason` (cloud target) — the calling policy's
/// semantics for "why this side of the platform" — and queued jobs with
/// kQueuedBehindPriority.
///
/// Workspace form: `clock` must be bound to the view's instance (the
/// function resets it); directives are appended to `out`. Neither argument
/// allocates once warm — this is the zero-allocation hot path.
void list_assign_directives(
    const SimView& view, const std::vector<OrderedJob>& order,
    ResourceClock& clock, std::vector<Directive>& out,
    ReasonCode local_reason = ReasonCode::kProjectedBestCompletion,
    ReasonCode offload_reason = ReasonCode::kProjectedBestCompletion);

/// Allocating convenience overload (tests, one-off tools).
[[nodiscard]] std::vector<Directive> list_assign_directives(
    const SimView& view, const std::vector<OrderedJob>& order);

}  // namespace ecs
