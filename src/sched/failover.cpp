#include "sched/failover.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/projection.hpp"

namespace ecs {

namespace {

/// Priority for evacuation directives the base policy did not issue: far
/// below anything a real policy emits, so rescued jobs never preempt the
/// base policy's explicit ordering, but still finite so the directive is
/// honored by the engine's priority sort.
constexpr double kEvacuationPriority = 1e15;

}  // namespace

FailoverPolicy::FailoverPolicy(std::unique_ptr<Policy> base,
                               FailoverConfig config)
    : base_(std::move(base)), config_(config) {
  if (base_ == nullptr) {
    throw std::invalid_argument("FailoverPolicy: null base policy");
  }
  if (!(config_.backoff_base > 0.0) || !(config_.backoff_factor >= 1.0) ||
      !(config_.backoff_max >= config_.backoff_base) ||
      config_.blacklist_after < 1) {
    throw std::invalid_argument("FailoverPolicy: invalid config");
  }
}

std::string FailoverPolicy::name() const {
  return "Failover(" + base_->name() + ")";
}

void FailoverPolicy::reset(const Instance& instance) {
  const std::size_t pc =
      static_cast<std::size_t>(instance.platform.cloud_count());
  failures_.assign(pc, 0);
  retry_at_.assign(pc, -kTimeInfinity);
  down_.assign(pc, 0);
  faulted_.assign(pc, 0);
  crashed_.assign(pc, 0);
  cloud_load_.assign(pc, 0);
  directed_stamp_.assign(instance.jobs.size(), 0);
  round_ = 0;
  base_->reset(instance);
}

bool FailoverPolicy::blacklisted(CloudId k) const {
  return failures_.at(k) >= config_.blacklist_after;
}

int FailoverPolicy::fault_count(CloudId k) const { return failures_.at(k); }

bool FailoverPolicy::avoid_new(CloudId k, Time now) const {
  return down_[k] != 0 || blacklisted(k) || now < retry_at_[k];
}

bool FailoverPolicy::evacuate(CloudId k) const {
  return down_[k] != 0 || blacklisted(k);
}

ReasonCode FailoverPolicy::reroute_cause(CloudId k) const {
  if (down_[k] != 0) return ReasonCode::kFailoverCrashEvacuation;
  if (blacklisted(k)) return ReasonCode::kFailoverBlacklist;
  return ReasonCode::kFailoverBackoff;
}

int FailoverPolicy::reroute_target(const SimView& view, const JobFields& f,
                                   Time now, std::vector<int>& cloud_load,
                                   bool* no_healthy_cloud) const {
  // Fastest healthy cloud, ties broken by fewest resident jobs: a fault
  // typically strands many jobs at once, and funneling them all onto one
  // survivor both congests it and concentrates the blast radius of the
  // next crash. (Announced outages remain the base policy's concern;
  // health here only reflects the observed fault history.)
  const Platform& platform = view.platform();
  CloudId best_cloud = -1;
  for (CloudId k = 0; k < platform.cloud_count(); ++k) {
    if (avoid_new(k, now)) continue;
    if (best_cloud < 0 ||
        platform.cloud_speed(k) > platform.cloud_speed(best_cloud) ||
        (platform.cloud_speed(k) == platform.cloud_speed(best_cloud) &&
         cloud_load[k] < cloud_load[best_cloud])) {
      best_cloud = k;
    }
  }
  if (no_healthy_cloud != nullptr) *no_healthy_cloud = best_cloud < 0;
  if (best_cloud < 0) return kAllocEdge;  // graceful degradation
  const Time on_cloud =
      uncontended_completion(view.instance(), f, best_cloud, now);
  const Time on_edge =
      uncontended_completion(view.instance(), f, kAllocEdge, now);
  if (on_edge <= on_cloud) return kAllocEdge;
  ++cloud_load[best_cloud];
  return best_cloud;
}

void FailoverPolicy::decide(const SimView& view,
                            const std::vector<Event>& events,
                            std::vector<Directive>& out) {
  const Time now = view.now();
  if (directed_stamp_.size() < view.state_count()) {
    directed_stamp_.assign(view.state_count(), 0);  // never-reset guard
  }

  // 1. Digest the fault/recovery events. Several kFault events for one
  //    cloud in the same batch (a crash aborting many jobs) count as ONE
  //    incident against that cloud's health.
  std::vector<char>& faulted = faulted_;
  std::vector<char>& crashed = crashed_;
  faulted.assign(failures_.size(), 0);
  crashed.assign(failures_.size(), 0);
  for (const Event& e : events) {
    if (e.cloud < 0 ||
        static_cast<std::size_t>(e.cloud) >= failures_.size()) {
      continue;
    }
    if (e.kind == EventKind::kFault) {
      faulted[e.cloud] = 1;
      if (e.job < 0) {  // cloud-level event: crash
        crashed[e.cloud] = 1;
        down_[e.cloud] = 1;
      }
    } else if (e.kind == EventKind::kRecovery) {
      down_[e.cloud] = 0;
    }
  }
  for (std::size_t k = 0; k < faulted.size(); ++k) {
    if (faulted[k] == 0) continue;
    // Only crashes count toward the blacklist: a message loss is transient
    // and cheap (one retransmission), so writing a cloud off for losses
    // would trade a fast machine for slow edge re-execution.
    if (crashed[k] != 0) ++failures_[k];
    const double delay =
        std::min(config_.backoff_max,
                 config_.backoff_base *
                     std::pow(config_.backoff_factor,
                              std::max(failures_[k], 1) - 1));
    retry_at_[k] = std::max(retry_at_[k], now + delay);
  }

  // 2. Let the base policy decide, then rewrite unhealthy placements.
  //    Reroutes balance on live resident counts (updated as we reroute) so
  //    a batch of stranded jobs spreads over the healthy clouds.
  std::vector<int>& cloud_load = cloud_load_;
  cloud_load.assign(failures_.size(), 0);
  for (const std::int32_t slot : view.live_slots()) {
    const int alloc = view.pool().alloc(slot);
    if (is_cloud_alloc(alloc) &&
        static_cast<std::size_t>(alloc) < cloud_load.size()) {
      ++cloud_load[alloc];
    }
  }
  const std::size_t base_begin = out.size();
  base_->decide(view, events, out);
  if (++round_ == 0) {  // wrap: stale stamps could collide, wipe them
    std::fill(directed_stamp_.begin(), directed_stamp_.end(), 0U);
    round_ = 1;
  }
  for (std::size_t i = base_begin; i < out.size(); ++i) {
    Directive& d = out[i];
    // Stamps are keyed by state slot so the table stays O(live) on
    // unbounded id streams; a stamp only lives for one round, so slot
    // recycling between rounds cannot alias.
    const std::int32_t slot = d.job < 0 ? -1 : view.slot(d.job);
    if (slot < 0 ||
        static_cast<std::size_t>(slot) >= directed_stamp_.size()) {
      continue;  // the engine reports malformed directives, not us
    }
    directed_stamp_[slot] = round_;
    const JobFields s = view.fields(d.job);
    const int effective = d.target == kTargetKeep ? s.alloc : d.target;
    if (!is_cloud_alloc(effective) ||
        static_cast<std::size_t>(effective) >= failures_.size()) {
      continue;
    }
    const bool rewrite = (d.target == kTargetKeep || effective == s.alloc)
                             // Not a new placement: move the job only off
                             // dead/blacklisted clouds (a backoff window
                             // alone does not justify discarding progress).
                             ? evacuate(effective)
                             : avoid_new(effective, now);
    if (rewrite) {
      const ReasonCode cause = reroute_cause(effective);
      bool no_healthy = false;
      d.target = reroute_target(view, s, now, cloud_load, &no_healthy);
      d.reason = (d.target == kAllocEdge && no_healthy)
                     ? ReasonCode::kFailoverDegradeToEdge
                     : cause;
    }
  }

  // 3. Evacuate residents of dead/blacklisted clouds that the base policy
  //    left alone (it sees nothing wrong with them).
  for (const std::int32_t slot : view.live_slots()) {
    if (directed_stamp_[slot] == round_) continue;
    const JobFields s = view.pool().fields(slot);
    if (!is_cloud_alloc(s.alloc) ||
        static_cast<std::size_t>(s.alloc) >= failures_.size() ||
        !evacuate(s.alloc)) {
      continue;
    }
    const ReasonCode cause = reroute_cause(s.alloc);
    bool no_healthy = false;
    const int target = reroute_target(view, s, now, cloud_load, &no_healthy);
    out.push_back(Directive{s.job->id, target, kEvacuationPriority,
                            (target == kAllocEdge && no_healthy)
                                ? ReasonCode::kFailoverDegradeToEdge
                                : cause});
  }
}

}  // namespace ecs
