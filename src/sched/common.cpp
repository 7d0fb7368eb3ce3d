#include "sched/common.hpp"

namespace ecs {

void list_assign_directives(const SimView& view,
                            const std::vector<OrderedJob>& order,
                            ResourceClock& clock,
                            std::vector<Directive>& out,
                            ReasonCode local_reason,
                            ReasonCode offload_reason) {
  const Platform& platform = view.platform();
  const Time now = view.now();
  // Outage-aware: projections mirror the engine's availability windows
  // (the caller bound `clock` to the instance; reset is O(1)).
  clock.reset(now);
  out.reserve(out.size() + order.size());
  double priority = 0.0;
  for (const OrderedJob& entry : order) {
    const JobFields f = view.fields(entry.id);
    const auto [target, done] = best_target_sticky(platform, clock, f);
    (void)done;
    const bool immediate = clock.starts_now(platform, f, target, now);
    clock.commit(platform, f, target);
    const ReasonCode reason =
        !immediate ? ReasonCode::kQueuedBehindPriority
                   : (is_cloud_alloc(target) ? offload_reason : local_reason);
    out.push_back(Directive{entry.id, immediate ? target : kTargetKeep,
                            priority, reason});
    priority += 1.0;
  }
}

std::vector<Directive> list_assign_directives(
    const SimView& view, const std::vector<OrderedJob>& order) {
  ResourceClock clock(view.instance(), view.now());
  std::vector<Directive> directives;
  list_assign_directives(view, order, clock, directives);
  return directives;
}

namespace {

bool ordered_before(const OrderedJob& a, const OrderedJob& b) {
  return a.key != b.key ? a.key < b.key : a.id < b.id;
}

}  // namespace

void sort_ordered(std::vector<OrderedJob>& order) {
  std::sort(order.begin(), order.end(), ordered_before);
}

void resort_ordered(std::vector<OrderedJob>& order) {
  // (key, id) is a strict total order, so any correct sort — this one or
  // the fallback, from any starting permutation — yields the same result.
  std::size_t budget = 4 * order.size();
  for (std::size_t i = 1; i < order.size(); ++i) {
    const OrderedJob entry = order[i];
    std::size_t j = i;
    for (; j > 0 && ordered_before(entry, order[j - 1]); --j) {
      order[j] = order[j - 1];
      if (--budget == 0) {
        order[j - 1] = entry;
        sort_ordered(order);
        return;
      }
    }
    order[j] = entry;
  }
}

int pick_fresh_cloud(const SimView& view,
                     const std::vector<char>& cloud_free) {
  const Platform& platform = view.platform();
  const Time now = view.now();
  int best = -1;
  double speed = 0.0;
  int fallback = -1;
  double fallback_speed = 0.0;
  for (CloudId k = 0; k < platform.cloud_count(); ++k) {
    if (!cloud_free[k]) continue;
    if (view.instance().cloud_available(k, now)) {
      if (platform.cloud_speed(k) > speed) {
        speed = platform.cloud_speed(k);
        best = k;
      }
    } else if (platform.cloud_speed(k) > fallback_speed) {
      fallback_speed = platform.cloud_speed(k);
      fallback = k;
    }
  }
  return best >= 0 ? best : fallback;
}

void uncontended_cloud_classes(const Instance& instance,
                               std::vector<CloudId>& out) {
  const Platform& platform = instance.platform;
  const auto no_outages = [&](CloudId k) {
    return instance.cloud_outages.empty() ||
           instance.cloud_outages.at(k).empty();
  };
  out.resize(static_cast<std::size_t>(platform.cloud_count()));
  for (CloudId k = 0; k < platform.cloud_count(); ++k) {
    out[k] = k;
    if (!no_outages(k)) continue;
    for (CloudId j = 0; j < k; ++j) {
      if (out[j] == j && no_outages(j) &&
          platform.cloud_speed(j) == platform.cloud_speed(k)) {
        out[k] = j;
        break;
      }
    }
  }
}

bool contains_release(const std::vector<Event>& events) {
  for (const Event& e : events) {
    if (e.kind == EventKind::kRelease) return true;
  }
  return false;
}

}  // namespace ecs
