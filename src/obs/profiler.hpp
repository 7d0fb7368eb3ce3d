// profiler.hpp - Engine self-profiling: calibrated tick timers over the
// engine's named phases plus a per-round decision-latency sketch.
//
// The engine's event loop is a fixed sequence of phases per decision round
// (decide, allocate, activate, emit, event min-scan, advance_active,
// completions, faults, admission). An attached EngineProfiler reads the
// tick counter ONCE per phase boundary and attributes the delta to the
// phase that just ended — the phases therefore TILE the whole run: their
// nanosecond totals sum to the run's wall time minus only the profiler's
// own reads (bench_engine_micro --profile-out pins the sum within 10% of
// an independent wall measurement). That lap structure is what keeps the
// profiler cheap enough to leave on in production runs: one rdtsc
// (~20 cycles) per boundary, ~10 boundaries per round.
//
// Tick source: the x86-64 TSC via __rdtsc (invariant/constant on every
// post-2010 part — it ticks at a fixed rate regardless of frequency
// scaling), the aarch64 generic counter (cntvct_el0), or steady_clock
// nanoseconds elsewhere. Ticks are converted to nanoseconds with a
// process-global calibration against steady_clock performed once, lazily
// (~2ms spin); see calibrated_ns_per_tick().
//
// The report is MERGEABLE like the quantile sketches it carries: the
// many-worlds batch driver keeps one profiler per resident world slot
// (profilers are single-threaded, like trace sinks) and merges the slots
// into one ProfileReport after the run — phase totals add, the per-policy
// decision-latency sketches merge exactly (obs/sketch.hpp).
//
// Compile-time kill switch: building with -DECS_PROFILE=0 (CMake option
// ECS_PROFILE=OFF) makes the engine ignore EngineConfig::profiler
// entirely — every hook folds to a constant-null check the compiler
// removes. The profiler API itself stays available either way.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "obs/sketch.hpp"

#ifndef ECS_PROFILE
#define ECS_PROFILE 1
#endif

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#else
#include <chrono>
#endif

namespace ecs::obs {

class MetricsRegistry;

/// The engine's phase taxonomy. One lap per phase boundary per decision
/// round (kPrepare / kFinish once per run): together the phases cover the
/// entire prepare()-to-finish_into() span, so their totals account for the
/// run's wall time. Documented in docs/OBSERVABILITY.md.
enum class EnginePhase : std::uint8_t {
  kPrepare,      ///< prepare()/init(): state reset, release sort, timelines
  kDecide,       ///< live-list sync, elision check, policy decide()
  kAllocate,     ///< interval close, retire flush, directives (1 lookup each)
  kActivate,     ///< priority arbitration (no sort of the active set)
  kEmit,         ///< queue-depth accounting, trace/metrics counter samples
  kEventScan,    ///< heap-free min-scan + next-event selection
  kAdvance,      ///< StatePool::advance_active progress kernel
  kCompletions,  ///< completion detection, fired-batch id sort, retirement
  kFaults,       ///< fault-timeline processing (crashes, losses, repairs)
  kAdmission,    ///< release firing, admission control, progress watchdog
  kFinish,       ///< finish_into(): result harvest + metrics flush
};
inline constexpr std::size_t kEnginePhaseCount = 11;

[[nodiscard]] const char* to_string(EnginePhase phase) noexcept;

/// Raw tick counter read. Monotonic within a core and, on the supported
/// tick sources, across cores; overhead is the whole point (rdtsc ~20
/// cycles vs ~25ns for a steady_clock read through the VDSO).
[[nodiscard]] inline std::uint64_t profile_tick() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#elif defined(__aarch64__)
  std::uint64_t value;
  asm volatile("mrs %0, cntvct_el0" : "=r"(value));
  return value;
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// Nanoseconds per profile_tick() tick, calibrated once per process
/// against steady_clock (thread-safe lazy init). Exactly 1.0 on the
/// steady_clock fallback.
[[nodiscard]] double calibrated_ns_per_tick();

struct PhaseTotals {
  std::uint64_t count = 0;  ///< laps attributed to this phase
  double ns = 0.0;          ///< total nanoseconds attributed
};

/// Aggregated profile of one or more engine runs. Mergeable: phase totals
/// and diagnostic counters add, peak gauges take the max, decision-latency
/// sketches merge exactly. Produced by EngineProfiler::report() and by
/// BatchEngine::profile_report().
struct ProfileReport {
  std::array<PhaseTotals, kEnginePhaseCount> phases{};
  /// Per-round decision latency (ns) keyed by policy name. Every decision
  /// round is observed, elided ones included — elision is a real latency
  /// win and belongs in the distribution (the elided_rounds counter below
  /// separates the populations).
  std::map<std::string, QuantileSketch> decision_ns;
  std::uint64_t runs = 0;
  std::uint64_t rounds = 0;     ///< decision rounds (== kDecide laps)
  std::uint64_t events = 0;
  std::uint64_t decisions = 0;  ///< SimStats::decisions summed over runs
  std::uint64_t elided_rounds = 0;
  /// Active-set entries examined by the event min-scan, summed: the
  /// heap-free scan's total work. scanned_slots / rounds is the average
  /// scan width.
  std::uint64_t scanned_slots = 0;
  std::uint64_t peak_live = 0;     ///< max over merged runs
  std::uint64_t peak_tracked = 0;  ///< max over merged runs
  double tick_ns = 1.0;  ///< calibration used to convert ticks to ns

  [[nodiscard]] double total_ns() const noexcept;
  [[nodiscard]] bool empty() const noexcept {
    return runs == 0 && rounds == 0;
  }

  void merge(const ProfileReport& other);

  /// Machine-readable dump: phase totals, diagnostics and per-policy
  /// decision-latency quantiles (p50/p90/p99/p99.9, mean, max). This is
  /// the --profile-out format and the "profile" block of the bench
  /// --json-out JSON; trace_inspect --profile renders it back as a table.
  void write_json(std::ostream& out) const;

  /// Standalone Perfetto/Chrome trace-event JSON: one slice per phase
  /// (laid end to end, sized by total ns) plus a counter track of per-lap
  /// cost. A separate artifact from the run trace on purpose — a profiled
  /// run's trace must stay byte-identical to an unprofiled one.
  void write_perfetto(std::ostream& out) const;

  /// Exports into a MetricsRegistry (Prometheus reach): per-phase timers
  /// ("engine.profile.phase.<name>") and call counters, the diagnostic
  /// counters/gauges, and the decision sketches
  /// ("engine.profile.decision_ns.<policy>", merged exactly).
  void to_metrics(MetricsRegistry& registry) const;

  /// Human-readable phase table (the trace_inspect --profile rendering).
  void print(std::ostream& out) const;
};

/// Single-threaded, attachable engine profiler (EngineConfig::profiler).
/// Like a trace sink it must not be shared across concurrent runs; unlike
/// one it is cheap enough to accumulate across SEQUENTIAL runs — the batch
/// driver keeps one per resident world slot and each begin_run()/end_run()
/// pair adds to the same totals.
///
/// Hot-path contract: mark() and lap() are a tick read plus two adds, and
/// never allocate. Allocation happens only in begin_run() (first sighting
/// of a policy name) and report().
class EngineProfiler {
 public:
  EngineProfiler() : ns_per_tick_(calibrated_ns_per_tick()) {}
  EngineProfiler(const EngineProfiler&) = delete;
  EngineProfiler& operator=(const EngineProfiler&) = delete;

  /// Starts a run under `policy`: selects (or creates) its decision
  /// sketch and anchors the lap clock.
  void begin_run(const std::string& policy);

  /// Ends a run, folding the engine's own diagnostics into the report.
  void end_run(std::uint64_t events, std::uint64_t decisions,
               std::uint64_t elided_rounds, std::uint64_t peak_live,
               std::uint64_t peak_tracked) noexcept;

  /// Re-anchors the lap clock without attributing the elapsed span to any
  /// phase (the engine calls this at the top of each step).
  void mark() noexcept { last_ = profile_tick(); }

  /// Attributes everything since the previous mark()/lap() to `phase` and
  /// re-anchors.
  void lap(EnginePhase phase) noexcept {
    const std::uint64_t now = profile_tick();
    PhaseAcc& acc = acc_[static_cast<std::size_t>(phase)];
    acc.ticks += now - last_;
    ++acc.count;
    last_ = now;
  }

  /// lap(kDecide) that also feeds the current policy's decision-latency
  /// sketch with the round's latency in nanoseconds.
  void lap_decision() {
    const std::uint64_t now = profile_tick();
    const std::uint64_t delta = now - last_;
    PhaseAcc& acc = acc_[static_cast<std::size_t>(EnginePhase::kDecide)];
    acc.ticks += delta;
    ++acc.count;
    last_ = now;
    if (sketch_ != nullptr) {
      sketch_->observe(static_cast<double>(delta) * ns_per_tick_);
    }
  }

  /// Records the event min-scan's width for this round (active-set size).
  void note_scan(std::size_t slots) noexcept {
    scanned_slots_ += static_cast<std::uint64_t>(slots);
  }

  [[nodiscard]] double ns_per_tick() const noexcept { return ns_per_tick_; }

  /// Snapshot of everything accumulated so far, in nanoseconds.
  [[nodiscard]] ProfileReport report() const;

  void reset();

 private:
  struct PhaseAcc {
    std::uint64_t ticks = 0;
    std::uint64_t count = 0;
  };

  std::array<PhaseAcc, kEnginePhaseCount> acc_{};
  std::uint64_t last_ = 0;
  QuantileSketch* sketch_ = nullptr;  ///< current run's policy sketch
  std::map<std::string, QuantileSketch> decision_ns_;
  std::uint64_t runs_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t decisions_ = 0;
  std::uint64_t elided_rounds_ = 0;
  std::uint64_t scanned_slots_ = 0;
  std::uint64_t peak_live_ = 0;
  std::uint64_t peak_tracked_ = 0;
  double ns_per_tick_;
};

}  // namespace ecs::obs
