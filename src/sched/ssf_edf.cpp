#include "sched/ssf_edf.hpp"

#include <algorithm>
#include <cmath>

namespace ecs {
namespace {

/// A job's deadline under target stretch `stretch`.
Time deadline_of(const JobFields& s, double stretch) {
  return s.job->release + stretch * s.best_time;
}

}  // namespace

void SsfEdfPolicy::reset(const Instance& instance) {
  deadlines_.assign(instance.jobs.size(), kTimeInfinity);
  last_target_stretch_ = 0.0;
  clock_.bind(instance, 0.0);
  entries_.clear();
  order_.clear();
  probe_targets_.clear();
  accepted_targets_.clear();
  replay_ = false;
  live_mark_.clear();
  mark_ = 0;
}

bool SsfEdfPolicy::feasible(const SimView& view, double stretch,
                            std::vector<double>* deadlines_out) {
  const Platform& platform = view.platform();

  // Deadlines for this candidate stretch. The EDF order depends on the
  // candidate (denominators differ between jobs), so the entries are
  // re-keyed and re-sorted for every probe — with the same (key, id)
  // tie-break as decide(). They hold the live set recompute_deadlines()
  // listed, in the previous probe's order: once the search narrows,
  // consecutive probes swap few pairs.
  const soa::StatePool& pool = view.pool();
  for (OrderedJob& e : entries_) {
    e.key = deadline_of(pool.fields(e.slot), stretch);
  }
  resort_ordered(entries_);

  clock_.reset(view.now());
  probe_targets_.resize(entries_.size());
  bool ok = true;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const OrderedJob& e = entries_[i];
    const JobFields s = pool.fields(e.slot);
    const auto [target, done] = best_target_sticky(platform, clock_, s);
    clock_.commit(platform, s, target);
    probe_targets_[i] = target;
    if (time_gt(done, e.key)) {
      ok = false;  // short-circuit: one missed deadline sinks the candidate
      break;
    }
  }
  if (ok) std::swap(probe_targets_, accepted_targets_);
  if (ok && deadlines_out != nullptr) {
    // Keyed by state slot, not id: slots recycle across retired jobs,
    // keeping this buffer O(live), and a slot's occupant can only change
    // at a release event — which recomputes every live deadline anyway.
    for (const OrderedJob& e : entries_) {
      (*deadlines_out)[e.slot] = e.key;
    }
  }
  return ok;
}

void SsfEdfPolicy::recompute_deadlines(const SimView& view) {
  const Platform& platform = view.platform();
  const Time now = view.now();
  // Track the engine's slot table (it only ever grows within a run).
  if (deadlines_.size() < view.state_count()) {
    deadlines_.resize(view.state_count(), kTimeInfinity);
  }

  // Lower bound: no schedule can beat each job's individually best
  // achievable stretch from the current state (and 1.0 overall). The same
  // pass lists the live jobs for the probes to re-key and re-sort.
  double lo = 1.0;
  replay_ = false;
  entries_.clear();
  for (const std::int32_t slot : view.live_slots()) {
    const JobFields s = view.pool().fields(slot);
    const Time best_done = best_uncontended_completion(platform, s, now);
    lo = std::max(lo, (best_done - s.job->release) / s.best_time);
    entries_.push_back(OrderedJob{s.job->id, slot, 0.0});
  }
  if (entries_.empty()) return;

  // Warm start: consecutive releases see mostly the same live set, so the
  // previous round's target stretch predicts this round's feasibility rung
  // almost exactly; min_feasible_stretch_warm verifies the prediction and
  // returns the same value the cold search would, with a fraction of the
  // probes. The cold path (hint <= 0) covers the first release.
  double accepted = -1.0;  // the last stretch a probe found feasible
  const double best_feasible = min_feasible_stretch_warm(
      lo, config_.epsilon, config_.max_iterations, last_target_stretch_,
      [&](double s) {
        const bool ok = feasible(view, s, nullptr);
        if (ok) accepted = s;
        return ok;
      });

  const double target = config_.alpha * best_feasible;
  last_target_stretch_ = target;
  // Locking in the deadlines. When the target is the stretch the search
  // last accepted (alpha = 1 and a verified result, the usual case), its
  // feasibility pass is known to succeed and would only write the keys;
  // otherwise a final pass decides and writes them. Either way the keys
  // come from the last feasible probe, whose walk list assignment replays.
  if (target == accepted) {
    for (const OrderedJob& e : entries_) {
      deadlines_[e.slot] = deadline_of(view.pool().fields(e.slot), target);
    }
    replay_ = true;
  } else if (feasible(view, target, &deadlines_)) {
    replay_ = true;
  } else {
    // alpha < 1 can make the scaled target infeasible; fall back to the
    // verified stretch.
    replay_ = feasible(view, best_feasible, &deadlines_);
    last_target_stretch_ = best_feasible;
  }
}

bool SsfEdfPolicy::filter_order(const SimView& view) {
  const std::span<const std::int32_t> live = view.live_slots();
  if (live_mark_.size() < view.state_count()) {
    live_mark_.resize(view.state_count(), 0);
  }
  if (++mark_ == 0) {  // wrap: stale marks could read as current
    std::fill(live_mark_.begin(), live_mark_.end(), 0);
    mark_ = 1;
  }
  for (const std::int32_t slot : live) {
    live_mark_[static_cast<std::size_t>(slot)] = mark_;
  }
  // An entry's slot still belongs to its job: no release happened since
  // order_ was built, and slots are reused only at admission. A retired
  // job's slot is free, so it reads as unmarked.
  std::size_t kept = 0;
  for (const OrderedJob& e : order_) {
    if (live_mark_[static_cast<std::size_t>(e.slot)] == mark_) {
      order_[kept++] = e;
    }
  }
  order_.resize(kept);
  return kept == live.size();
}

void SsfEdfPolicy::decide(const SimView& view,
                          const std::vector<Event>& events,
                          std::vector<Directive>& out) {
  if (!clock_.bound()) clock_.bind(view.instance(), view.now());
  const bool release = contains_release(events);
  if (release) recompute_deadlines(view);

  // EDF placement with the stored deadlines: walk live jobs by deadline,
  // put each on the processor where the projection completes it earliest.
  // Only jobs that actually start now are (re)allocated — see
  // list_assign_directives. Deadlines change only at releases and (key,
  // id) is a strict order, so between releases the previous order
  // filtered down to the live jobs is already sorted.
  if (release || !filter_order(view)) {
    order_.clear();
    for (const std::int32_t slot : view.live_slots()) {
      order_.push_back(
          OrderedJob{view.pool().job(slot).id, slot, deadlines_[slot]});
    }
    sort_ordered(order_);
  }
  // At a release the order is the accepted probe's: the same live set
  // under the same keys, sorted by the same strict (key, id) order, walked
  // from the same clock reset at now — so its recorded targets are the
  // ones best_target would pick again.
  std::span<const int> replay;
  if (release && replay_) replay = accepted_targets_;
  // A cloud placement means the edge projection could not hold the
  // deadline-driven target stretch — the paper's delegation criterion.
  list_assign_directives(view, order_, clock_, out,
                         ReasonCode::kDeadlineFeasibleLocal,
                         ReasonCode::kDeadlineInfeasibleOnEdge, replay);
}

}  // namespace ecs
