// arrivals.hpp - Streaming job arrivals for the engine.
//
// The engine consumes releases from an ArrivalStream: simulate_stream
// (engine.hpp) from the caller's, simulate() from an InstanceArrivalStream
// over the instance's job list. Per-job engine state is therefore a
// function of the number of *live* jobs, never of the total job count.
// The interface lives in sim/ (the engine's layer); the deterministic
// seeded arrival families — Poisson, diurnal NHPP, bursty MMPP,
// heavy-tailed Pareto, trace-file-driven — live in workloads/arrivals.hpp
// on top of it.
//
// Stream contract (enforced by the engine where cheap):
//  * next() returns jobs with non-decreasing release dates; ties are
//    consumed in emission order (InstanceArrivalStream breaks them by id);
//  * job ids are unique and non-negative (the synthetic families emit
//    sequential ids 0, 1, 2, ...);
//  * next() after exhaustion keeps returning nullopt;
//  * streams are deterministic: same construction, same sequence.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/platform.hpp"

namespace ecs {

/// Produces the job sequence of one streaming simulation.
class ArrivalStream {
 public:
  virtual ~ArrivalStream() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Next job in release order, or nullopt when the stream is exhausted.
  [[nodiscard]] virtual std::optional<Job> next() = 0;

  /// Jobs not yet emitted by next(); -1 when unknown (e.g. a stream read
  /// incrementally from disk). Used only for trace metadata.
  [[nodiscard]] virtual std::int64_t remaining() const { return -1; }
};

/// Adapts a materialized Instance's job list into a stream: emits the jobs
/// sorted by (release, id), ids untouched. simulate() runs every instance
/// through one (engine-owned, rebound per run), so simulate_stream over it
/// is simulate() (tests/test_streaming.cpp pins this).
class InstanceArrivalStream final : public ArrivalStream {
 public:
  /// An exhausted stream, until rebind().
  InstanceArrivalStream() = default;
  /// `instance` is not owned and must outlive the stream.
  explicit InstanceArrivalStream(const Instance& instance) {
    rebind(instance);
  }

  /// Restarts the stream over `instance` (not owned); the order buffer
  /// keeps its capacity.
  void rebind(const Instance& instance);

  [[nodiscard]] std::string name() const override { return "instance"; }
  [[nodiscard]] std::optional<Job> next() override;
  [[nodiscard]] std::int64_t remaining() const override {
    return static_cast<std::int64_t>(order_.size() - pos_);
  }

 private:
  const Instance* instance_ = nullptr;
  std::vector<JobId> order_;  ///< indices into instance_->jobs, release order
  std::size_t pos_ = 0;
};

}  // namespace ecs
