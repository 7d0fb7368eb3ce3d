#include "sched/greedy.hpp"

#include <limits>

namespace ecs {
namespace {

/// Relative improvement a relocation must offer over continuing on the
/// current allocation before Greedy discards progress (the re-execution
/// rule makes moves expensive: the uncontended estimates cannot see the
/// contention a marginal move creates, so near-tie moves systematically
/// thrash). Unassigned jobs have nothing to lose and are exempt.
constexpr double kSwitchMargin = 0.10;

}  // namespace

void GreedyPolicy::reset(const Instance& instance) {
  uncontended_cloud_classes(instance, cloud_class_);
  options_.clear();
  candidates_.clear();
  edge_free_.clear();
  cloud_free_.clear();
}

void GreedyPolicy::decide(const SimView& view,
                          const std::vector<Event>& events,
                          std::vector<Directive>& out) {
  (void)events;  // Greedy recomputes its choices from scratch at each event.
  const Platform& platform = view.platform();
  const Time now = view.now();

  if (cloud_class_.size() !=
      static_cast<std::size_t>(platform.cloud_count())) {
    uncontended_cloud_classes(view.instance(), cloud_class_);
  }
  // The minimum stretch a job achieves on a target, starting right now
  // (uncontended estimate), cached per (job, target) in the option table.
  const auto stretch_on = [&](const JobFields& f, int target) {
    return stretch_of(platform, *f.job,
                      uncontended_completion(view.instance(), f, target, now));
  };
  std::vector<PickOption>& options = options_;
  gather_pick_options(view, options, stretch_on);
  const std::size_t rows = options.size();
  std::vector<Candidate>& candidates = candidates_;
  std::vector<char>& edge_free = edge_free_;
  std::vector<char>& cloud_free = cloud_free_;
  edge_free.assign(static_cast<std::size_t>(platform.edge_count()), 1);
  cloud_free.assign(static_cast<std::size_t>(platform.cloud_count()), 1);

  // For each unpicked job: the minimum stretch achievable on a still
  // available resource, starting right now, and where. Jobs that cannot
  // be placed are left out.
  int fresh = pick_fresh_cloud(view, cloud_free);
  const auto rescore = [&] {
    candidates.clear();
    for (std::size_t r = 0; r < rows; ++r) {
      PickOption& o = options[r];
      if (o.picked) continue;
      double min_stretch = std::numeric_limits<double>::infinity();
      int argmin = kAllocUnassigned;
      double keep_stretch = std::numeric_limits<double>::infinity();
      const auto consider = [&](int target, double stretch) {
        if (stretch < min_stretch - kDecisionMargin) {
          min_stretch = stretch;
          argmin = target;
        }
      };
      // Continuing on the current allocation (progress intact) is the
      // baseline; when that resource was claimed by an earlier pick,
      // waiting for it (kTargetKeep) remains an option.
      int keep_target = kAllocUnassigned;
      if (o.alloc != kAllocUnassigned) {
        const bool own_free = o.alloc == kAllocEdge
                                  ? edge_free[o.origin] != 0
                                  : cloud_free[o.alloc] != 0;
        keep_target = own_free ? o.alloc : kTargetKeep;
        keep_stretch = o.keep;
        min_stretch = keep_stretch;
        argmin = keep_target;
      }
      if (edge_free[o.origin] && o.alloc != kAllocEdge) {
        consider(kAllocEdge, o.edge);
      }
      if (fresh >= 0 && fresh != o.alloc) {
        consider(fresh, fresh_option(view, o, fresh, cloud_class_[fresh],
                                     stretch_on));
      }
      if (argmin == kAllocUnassigned) continue;  // nothing available for it
      // Moving away from the current allocation discards progress; demand
      // a real improvement, not a near-tie (see kSwitchMargin).
      ReasonCode reason = ReasonCode::kGreedyBestStretch;
      if (keep_target != kAllocUnassigned && argmin != keep_target &&
          min_stretch > keep_stretch * (1.0 - kSwitchMargin)) {
        argmin = keep_target;
        min_stretch = keep_stretch;
        reason = ReasonCode::kGreedySwitchMarginHold;
      }
      if (argmin == kTargetKeep) {
        reason = ReasonCode::kGreedyWaitForOwnResource;
      }
      candidates.push_back(Candidate{min_stretch, o.best_time,
                                     static_cast<std::uint32_t>(r), argmin,
                                     reason});
    }
  };
  rescore();

  std::vector<Directive>& directives = out;
  directives.reserve(directives.size() + rows);
  double priority = 0.0;
  for (;;) {
    // Select the job with the highest achievable min-stretch; on ties,
    // the job with the smallest best-case time — short jobs are the most
    // stretch-sensitive, so delaying them is costlier.
    // (A picked candidate stays in place with a stretch that never wins.)
    double best_value = -1.0;  // max over jobs of min-stretch
    double best_tiebreak = std::numeric_limits<double>::infinity();
    std::size_t best = candidates.size();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const Candidate& c = candidates[i];
      if (c.stretch > best_value - kDecisionMargin &&
          (c.stretch > best_value + kDecisionMargin ||
           c.best_time < best_tiebreak)) [[unlikely]] {
        best_value = c.stretch;
        best_tiebreak = c.best_time;
        best = i;
      }
    }
    if (best == candidates.size()) break;  // no job can be placed

    Candidate& pick = candidates[best];
    PickOption& chosen = options[pick.row];
    const int target = pick.target;
    directives.push_back(Directive{chosen.id, target, priority, pick.reason});
    priority += 1.0;
    chosen.picked = true;
    pick.stretch = -std::numeric_limits<double>::infinity();
    if (target == kAllocEdge) {
      edge_free[chosen.origin] = 0;
      rescore();
    } else if (target != kTargetKeep) {
      cloud_free[target] = 0;
      fresh = pick_fresh_cloud(view, cloud_free);
      rescore();
    }
  }
}

}  // namespace ecs
