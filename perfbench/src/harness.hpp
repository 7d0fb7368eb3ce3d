// harness.hpp - The benchmark's workloads, its timed run, its traced
// replay and its output checks.
//
// A run of one workload has up to two phases:
//
//  * the timed run (always): rounds of the workload's worlds, dispatched
//    through the public drivers a user would call (run_sweep_point for the
//    paper sweeps, simulate_stream for the overload soak), repeated until
//    the time budget is spent. It yields the end-to-end metrics and one
//    digest per (round, point, policy) aggregate or streaming segment.
//  * the traced replay (trace mode): the same worlds again, each layer
//    called from outside — instance generation timed, the policy wrapped in
//    a TimedPolicy, simulate()/simulate_stream() timed, validate_schedule()
//    and compute_metrics() timed. Its digests must equal the timed run's
//    byte for byte, and it yields the per-layer metrics.
//
// Round r of a run draws its worlds from derive_seed(seed, r), so the same
// seed always produces the same inputs; only the number of rounds depends
// on the host's speed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "sim/engine.hpp"
#include "workloads/arrivals.hpp"
#include "workloads/random_instances.hpp"

namespace perfbench {

/// One sweep point: a label (the figure's x value) and its instance shape.
struct SweepPointSpec {
  std::string label;
  ecs::RandomInstanceConfig instance;
};

/// A benchmark workload. Sweep workloads run `replications` instances per
/// point and round through run_sweep_point; the streaming workload runs, per
/// round, one `stream.n`-job segment through simulate_stream on each thread.
struct WorkloadSpec {
  std::string name;
  std::vector<std::string> policies;
  // Sweep workloads.
  std::vector<SweepPointSpec> points;
  int replications = 0;
  /// Check the paper's ordering: ssf-edf has the lowest mean max-stretch
  /// at every point of every round.
  bool check_ssf_edf_best = false;
  // Streaming workload.
  bool streaming = false;
  ecs::ArrivalConfig stream;
  ecs::AdmissionConfig admission;

  [[nodiscard]] std::string describe() const;  ///< parameters as JSON
};

/// The three workloads: "paper-sweep", "paper-heavy", "stream-overload".
[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] const WorkloadSpec& find_workload(const std::string& name);

/// Digest entries keyed by a stable name ("agg/r0/ccr=1/srpt",
/// "world/r0/ccr=1/rep0/srpt", "world/segment0/srpt"); the value holds the
/// exact outputs (hex floats, counters).
using Digests = std::map<std::string, std::string>;

/// Reference digests of round 0 at one seed, read from / written to a
/// text file: a "seed <n>" line, then "<key> <value>" lines.
struct Reference {
  std::uint64_t seed = 0;
  Digests entries;
};
[[nodiscard]] Reference read_reference(const std::string& path);
void write_reference(const std::string& path, const Reference& reference);

struct Options {
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 1;  ///< worker threads
  /// Reference to check round 0 against when its seed matches; null = none.
  const Reference* reference = nullptr;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;  ///< worlds (or segments) of the timed run
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< one line per failure cause
  std::uint64_t first_dispatch_ns = 0;  ///< steady clock at first dispatch
  std::uint64_t rounds = 0;
  /// Median over the timed rounds of each round's jobs per wall second (a
  /// job counts once per policy that schedules it).
  double jobs_per_s = 0.0;
  double traced_jobs_per_s = 0.0;  ///< the same over the replayed rounds
  double peak_rss_mib = 0.0;
  std::vector<Metric> end_to_end;  ///< jobs_per_s, peak_rss_mib, ok_frac
  std::vector<Metric> per_layer;   ///< trace mode only
  Digests round0;  ///< round-0 digests (timed, plus replay in trace mode)
};

/// Steady-clock nanoseconds since its epoch (CLOCK_MONOTONIC on Linux).
[[nodiscard]] std::uint64_t steady_ns();

/// Runs one workload: the timed run, then the traced replay when
/// options.trace is set. Never throws for a failing world: failures are
/// counted in Outcome::failed and described in Outcome::problems.
[[nodiscard]] Outcome run_workload(const WorkloadSpec& spec,
                                   const Options& options);

}  // namespace perfbench
