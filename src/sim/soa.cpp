#include "sim/soa.hpp"

namespace ecs::soa {

// The AoS read cache lives out of line: only state() / states() readers
// reach it, and keeping it out of the header keeps the engine's inlined
// hot path free of it.

const JobState& StatePool::materialize(std::int32_t s) const {
  assert(s >= 0 && static_cast<std::size_t>(s) < size());
  if (static_cast<std::size_t>(s) >= view_.size()) size_view();
  if (view_epoch_[s] != epoch_) publish(s);
  return view_[s];
}

const std::vector<JobState>& StatePool::materialize_all() const {
  if (all_epoch_ != epoch_ || view_.size() != size()) {
    size_view();
    const auto n = static_cast<std::int32_t>(size());
    for (std::int32_t s = 0; s < n; ++s) {
      if (view_epoch_[s] != epoch_) publish(s);
    }
    all_epoch_ = epoch_;
  }
  return view_;
}

void StatePool::size_view() const {
  view_.resize(size());
  view_epoch_.resize(size(), 0);
}

void StatePool::publish(std::int32_t s) const {
  JobState& d = view_[s];
  d.job = job_[s];
  d.best_time = best_time_[s];
  d.alloc = alloc_[s];
  d.rem_up = rem_up_[s];
  d.rem_work = rem_work_[s];
  d.rem_down = rem_down_[s];
  d.active = active_[s];
  d.rate = rate_[s];
  d.last_update = last_update_[s];
  d.was_active = was_active_[s] != 0;
  d.released = released_[s] != 0;
  d.done = done_[s] != 0;
  d.completion = completion_[s];
  d.reassignments = reassignments_[s];
  view_epoch_[s] = epoch_;
}

}  // namespace ecs::soa
