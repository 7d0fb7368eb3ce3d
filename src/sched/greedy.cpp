#include "sched/greedy.hpp"

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
  table_.reset(instance);
  choices_.clear();
}

void GreedyPolicy::decide(const SimView& view,
                          const std::vector<Event>& events,
                          std::vector<Directive>& out) {
  (void)events;  // Greedy recomputes its choices from scratch at each event.
  const Time now = view.now();

  // The minimum stretch a job achieves on a target, starting right now
  // (uncontended estimate), cached per (job, target) in the option table.
  // best_time is the engine's Platform::best_time of the job — stretch_of's
  // denominator.
  const auto stretch_on = [&](const JobFields& f, int target) {
    return (uncontended_completion(view.instance(), f, target, now) -
            f.job->release) /
           f.best_time;
  };
  PickTable& table = table_;
  table.gather(view, stretch_on);
  const std::size_t rows = table.size();
  choices_.resize(rows);

  // A row's candidate under the current flags: the minimum stretch it
  // achieves on a still available resource, starting right now, and
  // which option achieves it. The tree key is the negated stretch; a
  // picked row, or one with nothing available, holds +inf (never wins).
  const auto derive = [&](std::size_t r) {
    PickOption& o = table[r];
    Choice& c = choices_[r];
    if (o.picked) return kTimeInfinity;
    double min_stretch = kTimeInfinity;
    Option argmin = Option::kNone;
    const auto consider = [&](Option option, double stretch) {
      if (stretch < min_stretch - kDecisionMargin) {
        min_stretch = stretch;
        argmin = option;
      }
    };
    // Continuing on the current allocation (progress intact) is the
    // baseline; when that resource was claimed by an earlier pick,
    // waiting for it (kTargetKeep) remains an option.
    if (o.alloc != kAllocUnassigned) {
      min_stretch = o.keep;
      argmin = Option::kKeep;
    }
    if (table.edge_free(o) && o.alloc != kAllocEdge) {
      consider(Option::kEdge, o.edge);
    }
    if (table.fresh() >= 0 && table.fresh() != o.alloc) {
      consider(Option::kFresh, table.fresh_value(view, o, stretch_on));
    }
    // Moving away from the current allocation discards progress; demand
    // a real improvement, not a near-tie (see kSwitchMargin).
    c.held = o.alloc != kAllocUnassigned && argmin != Option::kKeep &&
             min_stretch > o.keep * (1.0 - kSwitchMargin);
    if (c.held) {
      argmin = Option::kKeep;
      min_stretch = o.keep;
    }
    c.option = argmin;
    return argmin == Option::kNone ? kTimeInfinity : -min_stretch;
  };
  const auto derive_all = [&] {
    for (std::size_t r = 0; r < rows; ++r) tree_.set(r, derive(r));
    tree_.rebuild();
  };
  tree_.assign(rows);
  derive_all();

  std::vector<Directive>& directives = out;
  directives.reserve(directives.size() + rows);
  double priority = 0.0;
  for (;;) {
    // Select the job with the highest achievable min-stretch; on ties,
    // the job with the smallest best-case time — short jobs are the most
    // stretch-sensitive, so delaying them is costlier.
    const TreePick pick = pick_max_stretch(
        tree_, [&](std::size_t r) { return table[r].best_time; });
    if (pick.slot == rows) break;  // no job can be placed

    const std::size_t r = pick.slot;
    PickOption& chosen = table[r];
    const Choice c = choices_[r];
    int target = table.fresh();
    if (c.option == Option::kKeep) {
      target = table.keep_target(chosen);
    } else if (c.option == Option::kEdge) {
      target = kAllocEdge;
    }
    const ReasonCode reason =
        target == kTargetKeep ? ReasonCode::kGreedyWaitForOwnResource
        : c.held              ? ReasonCode::kGreedySwitchMarginHold
                              : ReasonCode::kGreedyBestStretch;
    directives.push_back(Directive{chosen.id, target, priority, reason});
    priority += 1.0;
    chosen.picked = true;
    tree_.update(r, kTimeInfinity);
    if (table.claim(view, chosen, target,
                    [&](std::size_t q) { tree_.update(q, derive(q)); })) {
      derive_all();
    }
  }
}

}  // namespace ecs
