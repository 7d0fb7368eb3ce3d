#include "layers.hpp"

#include <chrono>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

}  // namespace

void DecideStats::merge(const DecideStats& other) {
  calls += other.calls;
  ns += other.ns;
  live_sum += other.live_sum;
  directives += other.directives;
  latency_us.merge(other.latency_us);
}

void TimedPolicy::decide(const ecs::SimView& view,
                         const std::vector<ecs::Event>& events,
                         std::vector<ecs::Directive>& out) {
  const Clock::time_point start = Clock::now();
  inner_.decide(view, events, out);
  const std::uint64_t ns = ns_between(start, Clock::now());
  stats_.calls += 1;
  stats_.ns += ns;
  stats_.live_sum += view.live_jobs().size();
  stats_.directives += out.size();
  stats_.latency_us.observe(static_cast<double>(ns) * 1e-3);
}

std::optional<ecs::Job> TimedArrivalStream::next() {
  const Clock::time_point start = Clock::now();
  std::optional<ecs::Job> job = inner_.next();
  ns_ += ns_between(start, Clock::now());
  calls_ += 1;
  return job;
}

}  // namespace perfbench
