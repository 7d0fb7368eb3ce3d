#include "sched/srpt.hpp"

namespace ecs {

void SrptPolicy::reset(const Instance& instance) {
  uncontended_cloud_classes(instance, cloud_class_);
  options_.clear();
  candidates_.clear();
  edge_free_.clear();
  cloud_free_.clear();
}

void SrptPolicy::decide(const SimView& view, const std::vector<Event>& events,
                        std::vector<Directive>& out) {
  (void)events;  // SRPT recomputes its choices from scratch at each event.
  const Platform& platform = view.platform();
  const Time now = view.now();

  if (cloud_class_.size() !=
      static_cast<std::size_t>(platform.cloud_count())) {
    uncontended_cloud_classes(view.instance(), cloud_class_);
  }
  // Uncontended completion of a job on a target, cached per (job, target)
  // in the option table.
  const auto done_on = [&](const JobFields& f, int target) {
    return uncontended_completion(view.instance(), f, target, now);
  };
  std::vector<PickOption>& options = options_;
  gather_pick_options(view, options, done_on);
  const std::size_t rows = options.size();
  std::vector<Candidate>& candidates = candidates_;
  std::vector<char>& edge_free = edge_free_;
  std::vector<char>& cloud_free = cloud_free_;
  edge_free.assign(static_cast<std::size_t>(platform.edge_count()), 1);
  cloud_free.assign(static_cast<std::size_t>(platform.cloud_count()), 1);

  // Each unpicked job's available options, in consideration order.
  // Current allocation first: on equal completion times, continuing
  // (keeping progress) wins over any restart. If the job's own resource
  // was claimed earlier this round, waiting for it (kTargetKeep) competes
  // against restarting from scratch elsewhere.
  int fresh = pick_fresh_cloud(view, cloud_free);
  const auto rescore = [&] {
    candidates.clear();
    for (std::size_t r = 0; r < rows; ++r) {
      PickOption& o = options[r];
      if (o.picked) continue;
      const auto row = static_cast<std::uint32_t>(r);
      if (o.alloc != kAllocUnassigned) {
        const bool own_free = o.alloc == kAllocEdge
                                  ? edge_free[o.origin] != 0
                                  : cloud_free[o.alloc] != 0;
        candidates.push_back(
            Candidate{o.keep, row, own_free ? o.alloc : kTargetKeep});
      }
      const bool may_restart =
          config_.allow_reexecution || o.alloc == kAllocUnassigned;
      if (!may_restart) continue;
      if (edge_free[o.origin] && o.alloc != kAllocEdge) {
        candidates.push_back(Candidate{o.edge, row, kAllocEdge});
      }
      if (fresh >= 0 && fresh != o.alloc) {
        candidates.push_back(Candidate{
            fresh_option(view, o, fresh, cloud_class_[fresh], done_on), row,
            fresh});
      }
    }
  };
  rescore();

  std::vector<Directive>& directives = out;
  directives.reserve(directives.size() + rows);
  double priority = 0.0;
  for (;;) {
    // The (job, processor) pair completing earliest. (A picked job's
    // pairs stay in place with a completion that never wins.)
    Time threshold = kTimeInfinity - kDecisionMargin;
    std::size_t best = candidates.size();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (candidates[i].done < threshold) [[unlikely]] {
        threshold = candidates[i].done - kDecisionMargin;
        best = i;
      }
    }
    if (best == candidates.size()) break;  // nothing placeable

    const Candidate pick = candidates[best];
    PickOption& chosen = options[pick.row];
    directives.push_back(Directive{
        chosen.id, pick.target, priority,
        pick.target == kTargetKeep ? ReasonCode::kSrptWaitForOwnResource
                                   : ReasonCode::kSrptShortestRemaining});
    priority += 1.0;
    chosen.picked = true;
    // The job's pairs are adjacent.
    for (std::size_t i = best; i < candidates.size() &&
                               candidates[i].row == pick.row; ++i) {
      candidates[i].done = kTimeInfinity;
    }
    for (std::size_t i = best; i > 0 && candidates[i - 1].row == pick.row;
         --i) {
      candidates[i - 1].done = kTimeInfinity;
    }
    if (pick.target == kAllocEdge) {
      edge_free[chosen.origin] = 0;
      rescore();
    } else if (pick.target != kTargetKeep) {
      cloud_free[pick.target] = 0;
      fresh = pick_fresh_cloud(view, cloud_free);
      rescore();
    }
  }
}

}  // namespace ecs
