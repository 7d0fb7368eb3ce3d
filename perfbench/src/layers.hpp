// layers.hpp - Decorators that time the calls the engine makes into the
// sched and workloads layers, from outside those layers.
//
// The traced replay wraps each world's policy in a TimedPolicy and, for
// streaming worlds, its arrival stream in a TimedArrivalStream. Both
// forward every virtual call unchanged, so a decorated run is
// bit-identical to an undecorated one (perfbench_selftest pins this); they
// only add two steady-clock reads per call.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/sketch.hpp"
#include "sim/arrivals.hpp"
#include "sim/policy.hpp"

namespace perfbench {

/// What one TimedPolicy observed over the runs it decorated.
struct DecideStats {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;          ///< total wall time inside decide()
  std::uint64_t live_sum = 0;    ///< sum of live-set sizes seen by decide()
  std::uint64_t directives = 0;  ///< directives returned
  ecs::obs::QuantileSketch latency_us;  ///< per-call decide() latency

  void merge(const DecideStats& other);
};

/// Policy decorator: times decide() and records the live-set size it saw.
/// name(), reset() and elision() forward to the wrapped policy, so the
/// engine elides exactly the rounds it would elide for the bare policy.
class TimedPolicy final : public ecs::Policy {
 public:
  TimedPolicy(ecs::Policy& inner, DecideStats& stats)
      : inner_(inner), stats_(stats) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void reset(const ecs::Instance& instance) override {
    inner_.reset(instance);
  }
  [[nodiscard]] ecs::ElisionContract elision() const override {
    return inner_.elision();
  }
  void decide(const ecs::SimView& view, const std::vector<ecs::Event>& events,
              std::vector<ecs::Directive>& out) override;

 private:
  ecs::Policy& inner_;
  DecideStats& stats_;
};

/// Arrival-stream decorator: times next() (the workloads layer's share of
/// a streaming run).
class TimedArrivalStream final : public ecs::ArrivalStream {
 public:
  explicit TimedArrivalStream(ecs::ArrivalStream& inner) : inner_(inner) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::optional<ecs::Job> next() override;
  [[nodiscard]] std::int64_t remaining() const override {
    return inner_.remaining();
  }

  [[nodiscard]] std::uint64_t calls() const noexcept { return calls_; }
  [[nodiscard]] std::uint64_t ns() const noexcept { return ns_; }

 private:
  ecs::ArrivalStream& inner_;
  std::uint64_t calls_ = 0;
  std::uint64_t ns_ = 0;
};

}  // namespace perfbench
