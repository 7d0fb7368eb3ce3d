#include "sim/projection.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "sim/policy.hpp"

namespace ecs {

RemainingAmounts remaining_on(const JobFields& f, int target) {
  assert(target != kTargetKeep);
  RemainingAmounts rem;
  if (target == f.alloc) {
    rem.up = clamp_amount(f.rem_up);
    rem.work = clamp_amount(f.rem_work);
    rem.down = clamp_amount(f.rem_down);
    return rem;
  }
  // Re-execution from scratch (progress on the old resource is lost; when
  // the target is a different cloud processor the uplink must be resent).
  if (target == kAllocEdge) {
    rem.work = f.job->work;
  } else {
    rem.up = f.job->up;
    rem.work = f.job->work;
    rem.down = f.job->down;
  }
  return rem;
}

RemainingAmounts remaining_on(const JobState& state, int target) {
  return remaining_on(fields_of(state), target);
}

Time advance_through_outages(const IntervalSet* outages, Time start,
                             double duration) {
  // A zero-length leg does not need the resource at all: it must not be
  // pushed through an outage the cursor happens to sit inside.
  if (duration <= 0.0) return start;
  if (outages == nullptr || outages->empty()) return start + duration;
  Time cursor = start;
  double left = duration;
  for (const Interval& iv : outages->intervals()) {
    if (time_le(iv.end, cursor)) continue;  // outage already past
    // Available window before this outage.
    if (time_lt(cursor, iv.begin)) {
      const double window = iv.begin - cursor;
      if (left <= window + kAmountEpsilon) return cursor + left;
      left -= window;
    }
    cursor = std::max(cursor, iv.end);  // suspended through the outage
  }
  return cursor + left;
}

Time uncontended_completion(const Platform& platform, const JobFields& f,
                            int target, Time now) {
  const RemainingAmounts rem = remaining_on(f, target);
  if (target == kAllocEdge) {
    return now + rem.work / platform.edge_speed(f.job->origin);
  }
  return now + rem.up + rem.work / platform.cloud_speed(target) + rem.down;
}

Time uncontended_completion(const Platform& platform, const JobState& state,
                            int target, Time now) {
  return uncontended_completion(platform, fields_of(state), target, now);
}

Time uncontended_completion(const Instance& instance, const JobFields& f,
                            int target, Time now) {
  if (target == kAllocEdge || instance.cloud_outages.empty()) {
    return uncontended_completion(instance.platform, f, target, now);
  }
  const RemainingAmounts rem = remaining_on(f, target);
  const IntervalSet* outages = &instance.cloud_outages.at(target);
  // Uplink, execution and downlink all involve the cloud processor, so
  // each leg suspends during its outages.
  Time cursor = advance_through_outages(outages, now, rem.up);
  cursor = advance_through_outages(
      outages, cursor, rem.work / instance.platform.cloud_speed(target));
  cursor = advance_through_outages(outages, cursor, rem.down);
  return cursor;
}

Time uncontended_completion(const Instance& instance, const JobState& state,
                            int target, Time now) {
  return uncontended_completion(instance, fields_of(state), target, now);
}

CloudId fastest_cloud(const Platform& platform) {
  CloudId best = -1;
  double speed = 0.0;
  for (CloudId k = 0; k < platform.cloud_count(); ++k) {
    if (platform.cloud_speed(k) > speed) {
      speed = platform.cloud_speed(k);
      best = k;
    }
  }
  return best;
}

Time best_uncontended_completion(const Platform& platform, const JobFields& f,
                                 Time now) {
  Time best = uncontended_completion(platform, f, kAllocEdge, now);
  if (platform.cloud_count() > 0) {
    // Idle cloud processors of equal speed are interchangeable; the
    // fastest one is the best fresh representative. The current
    // allocation (if any) is probed separately to account for progress.
    best = std::min(
        best, uncontended_completion(platform, f, fastest_cloud(platform), now));
    if (is_cloud_alloc(f.alloc)) {
      best = std::min(best, uncontended_completion(platform, f, f.alloc, now));
    }
  }
  return best;
}

Time best_uncontended_completion(const Platform& platform,
                                 const JobState& state, Time now) {
  return best_uncontended_completion(platform, fields_of(state), now);
}

ResourceClock::ResourceClock(const Platform& platform, Time now) {
  bind(platform, now);
}

ResourceClock::ResourceClock(const Instance& instance, Time now) {
  bind(instance, now);
}

void ResourceClock::bind(const Platform& platform, Time now) {
  const auto edges = static_cast<std::size_t>(platform.edge_count());
  const auto clouds = static_cast<std::size_t>(platform.cloud_count());
  edges_.assign(edges, Slot{});
  clouds_.assign(clouds, Slot{});
  outages_ = nullptr;
  epoch_ = 0;
  reset(now);
}

void ResourceClock::bind(const Instance& instance, Time now) {
  bind(instance.platform, now);
  if (!instance.cloud_outages.empty()) {
    outages_ = &instance.cloud_outages;
  }
}

void ResourceClock::reset(Time now) noexcept {
  now_ = now;
  if (++epoch_ == 0) {
    // Epoch wrap: stale tags from 2^32 resets ago could read as current.
    // Wipe them (rare: once per 4 billion resets) and restart at 1.
    for (std::vector<Slot>* slots : {&edges_, &clouds_}) {
      for (Slot& slot : *slots) slot.epoch = 0;
    }
    epoch_ = 1;
  }
}

ResourceClock::Projection ResourceClock::project_detail(
    const Platform& platform, const JobFields& f, int target) const {
  const RemainingAmounts rem = remaining_on(f, target);
  const auto o = static_cast<std::size_t>(f.job->origin);
  Projection p{};
  const Slot edge = rd(edges_, o);
  if (target == kAllocEdge) {
    p.up_end = edge.cpu;
    p.exec_end = edge.cpu + rem.work / platform.edge_speed(f.job->origin);
    p.done = p.exec_end;
    return p;
  }
  const CloudId k = target;
  const Slot cloud = rd(clouds_, static_cast<std::size_t>(k));
  const IntervalSet* outages = outages_of(k);
  // An already-uploaded job (rem.up == 0) has no uplink leg: it must not
  // inherit delays from other jobs' committed uplinks on the same ports
  // (commit() guards the port clocks the same way).
  const Time cursor =
      rem.up > 0.0 ? std::max(edge.send, cloud.recv) : now_;
  p.up_end = advance_through_outages(outages, cursor, rem.up);
  p.exec_end =
      advance_through_outages(outages, std::max(p.up_end, cloud.cpu),
                              rem.work / platform.cloud_speed(k));
  if (rem.down > 0.0) {
    const Time dn_start = std::max({p.exec_end, cloud.send, edge.recv});
    p.done = advance_through_outages(outages, dn_start, rem.down);
  } else {
    p.done = p.exec_end;
  }
  return p;
}

Time ResourceClock::project(const Platform& platform, const JobFields& f,
                            int target) const {
  return project_detail(platform, f, target).done;
}

Time ResourceClock::project(const Platform& platform, const JobState& state,
                            int target) const {
  return project(platform, fields_of(state), target);
}

Time ResourceClock::commit(const Platform& platform, const JobFields& f,
                           int target) {
  const Projection p = project_detail(platform, f, target);
  const auto o = static_cast<std::size_t>(f.job->origin);
  if (target == kAllocEdge) {
    wr(edges_, o).cpu = p.exec_end;
    return p.done;
  }
  const auto kc = static_cast<std::size_t>(target);
  const RemainingAmounts rem = remaining_on(f, target);
  if (rem.up > 0.0) {
    wr(edges_, o).send = p.up_end;
    wr(clouds_, kc).recv = p.up_end;
  }
  wr(clouds_, kc).cpu = p.exec_end;
  if (rem.down > 0.0) {
    wr(clouds_, kc).send = p.done;
    wr(edges_, o).recv = p.done;
  }
  return p.done;
}

Time ResourceClock::commit(const Platform& platform, const JobState& state,
                           int target) {
  return commit(platform, fields_of(state), target);
}

bool ResourceClock::starts_now(const Platform& /*platform*/, const JobFields& f,
                               int target, Time now) const {
  const RemainingAmounts rem = remaining_on(f, target);
  const Slot edge = rd(edges_, static_cast<std::size_t>(f.job->origin));
  if (target == kAllocEdge) {
    return time_le(edge.cpu, now);
  }
  const CloudId k = target;
  const Slot cloud = rd(clouds_, static_cast<std::size_t>(k));
  // Nothing starts on a cloud inside one of its availability outages.
  if (const IntervalSet* outages = outages_of(k);
      outages != nullptr && outages->contains(now)) {
    return false;
  }
  if (rem.up > 0.0) {
    return time_le(edge.send, now) && time_le(cloud.recv, now);
  }
  if (rem.work > 0.0) {
    return time_le(cloud.cpu, now);
  }
  return time_le(cloud.send, now) && time_le(edge.recv, now);
}

bool ResourceClock::starts_now(const Platform& platform, const JobState& state,
                               int target, Time now) const {
  return starts_now(platform, fields_of(state), target, now);
}

bool ResourceClock::saturated(Time now) const {
  const auto busy = [now](Time t) { return !time_le(t, now); };
  bool edge_send = true;
  bool edge_recv = true;
  for (std::size_t j = 0; j < edges_.size(); ++j) {
    const Slot s = rd(edges_, j);
    if (!busy(s.cpu)) return false;
    edge_send = edge_send && busy(s.send);
    edge_recv = edge_recv && busy(s.recv);
  }
  bool cloud_send = true;
  bool cloud_recv = true;
  for (std::size_t k = 0; k < clouds_.size(); ++k) {
    const Slot s = rd(clouds_, k);
    if (!busy(s.cpu)) return false;
    cloud_send = cloud_send && busy(s.send);
    cloud_recv = cloud_recv && busy(s.recv);
  }
  return (edge_send || cloud_recv) && (cloud_send || edge_recv);
}

std::pair<int, Time> ResourceClock::best_target(const Platform& platform,
                                                const JobFields& f) const {
  int best_target_id = kAllocEdge;
  Time best = kTimeInfinity;
  const auto consider = [&](int target, Time done) {
    if (done < best - kDecisionMargin) {
      best = done;
      best_target_id = target;
    }
  };
  if (f.alloc != kAllocUnassigned) {
    best_target_id = f.alloc;
    best = project(platform, f, f.alloc);
    if (f.alloc != kAllocEdge) {
      consider(kAllocEdge, project(platform, f, kAllocEdge));
    }
  } else {
    consider(kAllocEdge, project(platform, f, kAllocEdge));
  }

  // Cloud scan. Every k != alloc is a fresh start (remaining_on's
  // re-execution branch: the full amounts), so the per-job invariants are
  // hoisted and each cloud evaluates project_detail's cloud branch,
  // expression for expression, with advance_through_outages' first two
  // branches inlined for outage-free clouds. Two passes per chunk of
  // clouds: pass 1 writes every completion into `done` — no loop-carried
  // dependency, so the clouds' projections (divisions included) overlap —
  // and pass 2 runs the sticky margin rule over them in id order. The loop
  // is instantiated twice: with the outage lookup, and with a constant "no
  // outages" that leaves it free of calls.
  const double up = f.job->up;
  const double work = f.job->work;
  const double down = f.job->down;
  const Slot edge = rd(edges_, static_cast<std::size_t>(f.job->origin));
  const double* speed = platform.cloud_speeds().data();
  const CloudId clouds = platform.cloud_count();
  const auto scan = [&](auto outages_of_cloud) {
    const auto leg = [](const IntervalSet* outages, Time start,
                        double duration) {
      if (outages == nullptr) {
        return duration <= 0.0 ? start : start + duration;
      }
      return advance_through_outages(outages, start, duration);
    };
    constexpr CloudId kChunk = 32;
    std::array<Time, kChunk> done;
    for (CloudId base = 0; base < clouds; base += kChunk) {
      const CloudId n = std::min(kChunk, clouds - base);
      for (CloudId i = 0; i < n; ++i) {
        const CloudId k = base + i;
        const Slot cloud = rd(clouds_, static_cast<std::size_t>(k));
        const IntervalSet* outages = outages_of_cloud(k);
        const Time cursor = up > 0.0 ? std::max(edge.send, cloud.recv) : now_;
        const Time up_end = leg(outages, cursor, up);
        const Time exec_end =
            leg(outages, std::max(up_end, cloud.cpu), work / speed[k]);
        done[static_cast<std::size_t>(i)] =
            down > 0.0
                ? leg(outages, std::max({exec_end, cloud.send, edge.recv}),
                      down)
                : exec_end;
      }
      // The sticky rule, as consider() states it. The hint keeps the select
      // a branch: if-converted, it becomes a serial select chain, 17%
      // slower on SSF-EDF's light-load decides.
      for (CloudId i = 0; i < n; ++i) {
        const Time d = done[static_cast<std::size_t>(i)];
        if (d < best - kDecisionMargin && base + i != f.alloc) [[unlikely]] {
          best = d;
          best_target_id = base + i;
        }
      }
    }
  };
  if (outages_ == nullptr || outages_->empty()) {
    scan([](CloudId) -> const IntervalSet* { return nullptr; });
  } else {
    scan([this](CloudId k) { return outages_of(k); });
  }
  return {best_target_id, best};
}

std::pair<int, Time> ResourceClock::best_target(const Platform& platform,
                                                const JobState& state) const {
  return best_target(platform, fields_of(state));
}

}  // namespace ecs
