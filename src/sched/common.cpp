#include "sched/common.hpp"

#include <bit>
#include <cassert>

namespace ecs {

void list_assign_directives(const SimView& view,
                            const std::vector<OrderedJob>& order,
                            ResourceClock& clock,
                            std::vector<Directive>& out,
                            ReasonCode local_reason,
                            ReasonCode offload_reason,
                            std::span<const int> targets) {
  // Placements between two saturation tests: a test reads every resource
  // slot, a placement one cloud scan.
  constexpr std::size_t kSaturationStride = 8;
  const Platform& platform = view.platform();
  const Time now = view.now();
  const bool replay = !targets.empty();
  assert(!replay || targets.size() == order.size());
  // Outage-aware: projections mirror the engine's availability windows
  // (the caller bound `clock` to the instance; reset is O(1)).
  clock.reset(now);
  out.reserve(out.size() + order.size());
  double priority = 0.0;
  std::size_t i = 0;
  for (; i < order.size(); ++i) {
    if (i % kSaturationStride == 0 && i != 0 && clock.saturated(now)) break;
    const OrderedJob& entry = order[i];
    const JobFields f = view.fields(entry.id);
    const int target =
        replay ? targets[i] : best_target_sticky(platform, clock, f).first;
    assert(!replay || target == best_target_sticky(platform, clock, f).first);
    const bool immediate = clock.starts_now(platform, f, target, now);
    clock.commit(platform, f, target);
    const ReasonCode reason =
        !immediate ? ReasonCode::kQueuedBehindPriority
                   : (is_cloud_alloc(target) ? offload_reason : local_reason);
    out.push_back(Directive{entry.id, immediate ? target : kTargetKeep,
                            priority, reason});
    priority += 1.0;
  }
  // Saturated: commit() never moves a clock backwards, so starts_now stays
  // false for every remaining job and target — the walk would queue them
  // all.
  for (; i < order.size(); ++i) {
    out.push_back(Directive{order[i].id, kTargetKeep, priority,
                            ReasonCode::kQueuedBehindPriority});
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

void MinTree::assign(std::size_t n) {
  size_ = n;
  cap_ = std::bit_ceil(std::max<std::size_t>(n, 1));
  nodes_.assign(2 * cap_, kTimeInfinity);
}

void MinTree::refresh(std::size_t lo, std::size_t hi) {
  if (lo >= hi) return;
  lo += cap_;
  hi += cap_ - 1;  // inclusive
  while (lo > 1) {
    lo >>= 1;
    hi >>= 1;
    for (std::size_t i = lo; i <= hi; ++i) {
      nodes_[i] = std::min(nodes_[2 * i], nodes_[2 * i + 1]);
    }
  }
}

std::size_t MinTree::first_min() const {
  if (size_ == 0) return 0;
  std::size_t i = 1;
  while (i < cap_) {
    i = 2 * i + (nodes_[2 * i] <= nodes_[2 * i + 1] ? 0 : 1);
  }
  return i - cap_;
}

double MinTree::min_of(std::size_t lo, std::size_t hi) const {
  double best = kTimeInfinity;
  for (lo += cap_, hi += cap_; lo < hi; lo >>= 1, hi >>= 1) {
    if (lo & 1) best = std::min(best, nodes_[lo++]);
    if (hi & 1) best = std::min(best, nodes_[--hi]);
  }
  return best;
}

std::size_t earliest_fold(std::span<const double> keys) {
  Time threshold = kTimeInfinity - kDecisionMargin;
  std::size_t best = keys.size();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (keys[i] < threshold) [[unlikely]] {
      threshold = keys[i] - kDecisionMargin;
      best = i;
    }
  }
  return best;
}

TreePick pick_earliest(const MinTree& tree) {
  const std::size_t n = tree.size();
  const double top = tree.min();
  if (top >= kTimeInfinity - kDecisionMargin) return {n, true};
  const std::size_t k = tree.first_min();
  if (top < tree.min_of(0, k) - kDecisionMargin) return {k, true};
  return {earliest_fold(tree.keys()), false};
}

void PickTable::reset(const Instance& instance) {
  uncontended_cloud_classes(instance, cloud_class_);
  rows_.clear();
  edge_free_.clear();
  cloud_free_.clear();
  fresh_ = -1;
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
