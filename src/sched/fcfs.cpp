#include "sched/fcfs.hpp"

#include <algorithm>

namespace ecs {

void FcfsPolicy::reset(const Instance& instance) {
  clock_.bind(instance, 0.0);
  order_.clear();
}

void FcfsPolicy::decide(const SimView& view, const std::vector<Event>& events,
                        std::vector<Directive>& out) {
  (void)events;

  order_.clear();
  for (const std::int32_t slot : view.live_slots()) {
    const Job& job = view.pool().job(slot);
    order_.push_back(OrderedJob{job.id, slot, job.release});
  }
  sort_ordered(order_);
  if (!clock_.bound()) clock_.bind(view.instance(), view.now());
  list_assign_directives(view, order_, clock_, out,
                         ReasonCode::kFcfsArrivalOrder,
                         ReasonCode::kFcfsArrivalOrder);
}

}  // namespace ecs
