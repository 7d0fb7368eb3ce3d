#include "sched/edge_only.hpp"

#include <algorithm>

namespace ecs {

void EdgeOnlyPolicy::reset(const Instance& instance) {
  deadlines_.assign(instance.jobs.size(), kTimeInfinity);
  entries_.clear();
  touched_.assign(
      static_cast<std::size_t>(instance.platform.edge_count()), 0);
}

bool EdgeOnlyPolicy::feasible_on_edge(const SimView& view, EdgeId j,
                                      double stretch,
                                      std::vector<double>* deadlines_out) {
  // On a single machine with every candidate job already released,
  // preemptive EDF is optimal and feasibility reduces to: process jobs by
  // deadline; the cumulative remaining execution time must meet each
  // deadline.
  const Platform& platform = view.platform();
  const double speed = platform.edge_speed(j);
  entries_.clear();
  for (const std::int32_t slot : view.live_slots()) {
    const JobFields s = view.pool().fields(slot);
    if (s.job->origin != j) continue;
    // Edge-Only never allocates elsewhere, so remaining work is meaningful
    // only for an edge allocation; an unassigned job is fresh.
    const double rem_work =
        (s.alloc == kAllocEdge) ? clamp_amount(s.rem_work) : s.job->work;
    entries_.push_back(Entry{s.job->id, slot,
                             s.job->release + stretch * s.best_time,
                             rem_work / speed});
  }
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) {
              return a.deadline != b.deadline ? a.deadline < b.deadline
                                              : a.id < b.id;
            });
  Time cursor = view.now();
  for (const Entry& e : entries_) {
    cursor += e.exec_time;
    if (time_gt(cursor, e.deadline)) return false;
  }
  if (deadlines_out != nullptr) {
    // Keyed by state slot: slots recycle when jobs retire, and a recycled
    // slot's new occupant triggers a release on its edge, which rewrites
    // every deadline of that edge anyway.
    for (const Entry& e : entries_) {
      (*deadlines_out)[e.slot] = e.deadline;
    }
  }
  return true;
}

void EdgeOnlyPolicy::recompute_edge_deadlines(const SimView& view, EdgeId j) {
  const Platform& platform = view.platform();
  const double speed = platform.edge_speed(j);
  double lo = 1.0;
  bool any = false;
  for (const std::int32_t slot : view.live_slots()) {
    const JobFields s = view.pool().fields(slot);
    if (s.job->origin != j) continue;
    any = true;
    const double rem_work =
        (s.alloc == kAllocEdge) ? clamp_amount(s.rem_work) : s.job->work;
    const Time best_done = view.now() + rem_work / speed;
    lo = std::max(lo, (best_done - s.job->release) / s.best_time);
  }
  if (!any) return;

  const double best = min_feasible_stretch(
      lo, config_.epsilon, config_.max_iterations,
      [&](double s) { return feasible_on_edge(view, j, s, nullptr); });
  (void)feasible_on_edge(view, j, best, &deadlines_);
}

void EdgeOnlyPolicy::decide(const SimView& view,
                            const std::vector<Event>& events,
                            std::vector<Directive>& out) {
  // Track the engine's slot table (it only ever grows within a run).
  if (deadlines_.size() < view.state_count()) {
    deadlines_.resize(view.state_count(), kTimeInfinity);
  }
  // Recompute deadlines only for edges that saw a release in this batch.
  touched_.assign(
      static_cast<std::size_t>(view.platform().edge_count()), 0);
  for (const Event& e : events) {
    if (e.kind == EventKind::kRelease) {
      touched_[view.fields(e.job).job->origin] = 1;
    }
  }
  for (EdgeId j = 0; j < view.platform().edge_count(); ++j) {
    if (touched_[j]) recompute_edge_deadlines(view, j);
  }

  // EDF on every edge: priority = deadline; the engine runs, per edge, the
  // allocated job with the smallest priority (preempting as needed).
  const std::span<const std::int32_t> live = view.live_slots();
  out.reserve(out.size() + live.size());
  for (const std::int32_t slot : live) {
    out.push_back(Directive{view.pool().job(slot).id, kAllocEdge,
                            deadlines_[slot], ReasonCode::kEdgeOnlyEdf});
  }
}

}  // namespace ecs
