#include "sched/srpt.hpp"

namespace ecs {

void SrptPolicy::reset(const Instance& instance) { table_.reset(instance); }

void SrptPolicy::decide(const SimView& view, const std::vector<Event>& events,
                        std::vector<Directive>& out) {
  (void)events;  // SRPT recomputes its choices from scratch at each event.
  const Time now = view.now();

  // Uncontended completion of a job on a target, cached per (job, target)
  // in the option table.
  const auto done_on = [&](const JobFields& f, int target) {
    return uncontended_completion(view.instance(), f, target, now);
  };
  PickTable& table = table_;
  table.gather(view, done_on);
  const std::size_t rows = table.size();

  // Each row's three slots, in consideration order: its current
  // allocation first — on equal completion times, continuing (keeping
  // progress) wins over any restart; if the job's own resource was
  // claimed earlier this round, waiting for it (kTargetKeep) competes
  // against restarting from scratch elsewhere — then the origin edge,
  // then the fresh cloud. An unavailable option, and every slot of a
  // picked row, holds +inf (never wins).
  const auto derive = [&](std::size_t r) {
    PickOption& o = table[r];
    const std::size_t s = kSlots * r;
    const bool may_restart =
        !o.picked &&
        (config_.allow_reexecution || o.alloc == kAllocUnassigned);
    tree_.set(s + kKeep, !o.picked && o.alloc != kAllocUnassigned
                             ? o.keep
                             : kTimeInfinity);
    tree_.set(s + kEdge, may_restart && table.edge_free(o) &&
                                 o.alloc != kAllocEdge
                             ? o.edge
                             : kTimeInfinity);
    tree_.set(s + kFresh,
              may_restart && table.fresh() >= 0 && table.fresh() != o.alloc
                  ? table.fresh_value(view, o, done_on)
                  : kTimeInfinity);
  };
  const auto rederive = [&](std::size_t r) {
    derive(r);
    tree_.refresh(kSlots * r, kSlots * (r + 1));
  };
  const auto derive_all = [&] {
    for (std::size_t r = 0; r < rows; ++r) derive(r);
    tree_.rebuild();
  };
  tree_.assign(kSlots * rows);
  derive_all();

  std::vector<Directive>& directives = out;
  directives.reserve(directives.size() + rows);
  double priority = 0.0;
  for (;;) {
    // The (job, processor) pair completing earliest.
    const TreePick pick = pick_earliest(tree_);
    if (pick.slot == tree_.size()) break;  // nothing placeable

    const std::size_t r = pick.slot / kSlots;
    PickOption& chosen = table[r];
    int target = table.fresh();
    if (pick.slot % kSlots == kKeep) {
      target = table.keep_target(chosen);
    } else if (pick.slot % kSlots == kEdge) {
      target = kAllocEdge;
    }
    directives.push_back(Directive{
        chosen.id, target, priority,
        target == kTargetKeep ? ReasonCode::kSrptWaitForOwnResource
                              : ReasonCode::kSrptShortestRemaining});
    priority += 1.0;
    chosen.picked = true;
    rederive(r);
    if (table.claim(view, chosen, target, rederive)) derive_all();
  }
}

}  // namespace ecs
