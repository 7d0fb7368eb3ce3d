// sweep.hpp - Parameter sweeps with replication, the backbone of every
// figure reproduction.
//
// A sweep point is one x-axis value of a paper figure (a CCR, a load, a job
// count). For each point we draw `replications` independent instances
// (seeded deterministically from base_seed, point label and replication
// index), run every requested policy on each instance, and aggregate the
// per-instance metrics. Paper points average 1000 instances; the bench
// defaults are smaller so the suite finishes on modest hardware, and every
// binary accepts --reps to raise them.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "exp/runner.hpp"
#include "obs/profiler.hpp"
#include "obs/sketch.hpp"
#include "util/stats.hpp"

namespace ecs {

namespace obs {
class HeartbeatMonitor;
}  // namespace obs

/// Builds the instance for one replication from a derived seed.
using InstanceFactory = std::function<Instance(std::uint64_t seed)>;

/// Builds the unannounced fault plan for one replication; receives the
/// replication's instance (for platform size / horizon) and its seed.
using FaultPlanFactory =
    std::function<FaultPlan(const Instance& instance, std::uint64_t seed)>;

struct PolicyAggregate {
  std::string policy;
  Accumulator max_stretch;
  Accumulator mean_stretch;
  Accumulator wall_seconds;
  Accumulator reassignments;
  Accumulator events;
  /// Distribution summaries across ALL jobs of ALL replications, without
  /// retaining per-job samples: every quantile estimate carries the
  /// sketch's relative-error bound (obs/sketch.hpp, default 1%). Each
  /// world fills a private per-replication sketch; the merge — exact,
  /// order-independent — happens serially afterwards.
  obs::QuantileSketch stretch_sketch;    ///< per-job stretch S_i
  obs::QuantileSketch flow_sketch;       ///< per-job flow time C_i - r_i
  obs::QuantileSketch queue_depth_sketch;///< per-replication max queue depth
};

struct SweepPointResult {
  std::string label;
  std::vector<PolicyAggregate> per_policy;
  /// Merged engine self-profile of every run of this point, keyed by
  /// policy through its decision-latency sketches (SweepOptions::profile;
  /// empty when off).
  obs::ProfileReport profile;

  [[nodiscard]] const PolicyAggregate& policy(const std::string& name) const;
};

struct SweepOptions {
  int replications = 30;
  std::uint64_t base_seed = 42;
  unsigned threads = 0;  ///< 0 = hardware concurrency
  /// Index of this point within its sweep, mixed into the replication
  /// seeds so two points whose labels collide (e.g. different values
  /// formatted to the same string) still draw distinct instances. -1 (the
  /// default) omits the index and reproduces the historical
  /// replication_seed(base, label, rep) derivation exactly.
  int point_index = -1;
  /// Validate the recorded schedule on the first replication of each
  /// (point, policy) pair; throws if any constraint of section III-B fails
  /// (fault-aware when a fault plan is in play).
  bool validate_first = true;
  /// Forwarded to every run. engine.metrics (thread-safe) is shared by all
  /// replications x policies; engine.trace, being a single-run object, is
  /// forwarded only to replication 0 of the first policy and nulled
  /// elsewhere.
  EngineConfig engine;
  /// Optional per-replication unannounced fault plan (sim/faults.hpp);
  /// overrides engine.faults for every run when set.
  FaultPlanFactory fault_factory;
  /// Collect a merged engine ProfileReport for the point. Per-(policy,
  /// point) decision latency falls out of the report's policy-keyed
  /// sketches. Never affects results.
  bool profile = false;
  /// Optional progress heartbeat (obs/heartbeat.hpp), forwarded to the
  /// batch driver: worlds-done / throughput / ETA on stderr for long
  /// sweeps. Not owned; share one monitor across points for a sweep-wide
  /// ETA.
  obs::HeartbeatMonitor* heartbeat = nullptr;
};

/// Runs one sweep point: `factory(seed)` provides the instances, every
/// policy in `policies` runs on every replication. Each (replication,
/// policy) run is a world of the many-worlds batch driver (sim/batch.hpp):
/// worker threads recycle resident engine cores, so the steady state
/// allocates nothing and constructs no policy per run. The aggregates are
/// those of running each world through run_policy() serially (wall_seconds
/// aside — it is wall time; tests/test_exp.cpp pins the equality).
[[nodiscard]] SweepPointResult run_sweep_point(
    const std::string& label, const InstanceFactory& factory,
    const std::vector<std::string>& policies, const SweepOptions& options);

/// Derives the replication seed for (base, point label, replication).
/// Equivalent to sweep_seed(base, -1, label, replication).
[[nodiscard]] std::uint64_t replication_seed(std::uint64_t base,
                                             const std::string& label,
                                             int replication);

/// SplitMix64 chain over (base, point index, label, replication): the seed
/// every sweep replication draws its instance and fault plan from.
/// point_index < 0 omits the index link, reproducing replication_seed();
/// otherwise equal labels at different indices yield distinct seed streams
/// (tests/test_exp.cpp pins both properties).
[[nodiscard]] std::uint64_t sweep_seed(std::uint64_t base, int point_index,
                                       const std::string& label,
                                       int replication);

}  // namespace ecs
