// engine.hpp - Event-driven simulator for MinMaxStretch-EdgeCloud.
//
// The engine advances continuous time from event to event. An event is a
// job release or the completion of an activity (uplink, execution,
// downlink). At each event it queries the policy for directives, applies
// allocation changes (implementing the paper's re-execution rule), then
// activates activities in priority order subject to the model's resource
// constraints:
//
//  * each edge / cloud processor executes at most one job at a time
//    (preemption happens naturally when priorities change);
//  * one-port full-duplex: an edge processor participates in at most one
//    uplink (its send port) and one downlink (its receive port) at a time,
//    a cloud processor in at most one incoming uplink (receive port) and
//    one outgoing downlink (send port); communications are preemptible;
//  * computation overlaps communication freely;
//  * per job: uplink completes before execution starts, execution before
//    the downlink starts.
//
// Between events every active activity progresses linearly, so the next
// event time is computed analytically. The event loop is O(live + active)
// per event, independent of the instance size: the engine tracks explicit
// live/active job sets, accounts progress lazily per activity (rate +
// last-update anchor) and finds the next activity end with a branch-lean
// min-scan over the active set's SoA hot fields (see DESIGN.md §5 and §8,
// "Engine internals" / "Hot-path data layout").
//
// The full activity history is recorded into a core::Schedule, which the
// section III-B validator can then check independently — the engine and
// the validator are two separate implementations of the model, and the
// test suite plays them against each other.
#pragma once

#include <cstdint>
#include <memory>

#include "core/platform.hpp"
#include "core/schedule.hpp"
#include "sim/faults.hpp"
#include "sim/policy.hpp"

namespace ecs {

namespace obs {
class EngineProfiler;
class HeartbeatMonitor;
class InvariantWatchdog;
class MetricsRegistry;
class TraceSink;
}  // namespace obs

class ArrivalStream;

/// How admission control resolves an arrival that would exceed a cap.
enum class AdmissionRule : std::uint8_t {
  /// Refuse the arriving job (FIFO protection: residents keep their seat).
  kRejectNewest,
  /// Evict the resident never-started job with the worst stretch lower
  /// bound — but only when that bound is worse than the arrival's (1.0 at
  /// its own release) — then admit the arrival; otherwise reject it.
  kRejectHopeless,
  /// Before the cap check, shed every resident never-started job whose
  /// best achievable stretch already exceeds stretch_limit (its deadline
  /// release + stretch_limit * best_time can no longer be met); arrivals
  /// that still exceed a cap are rejected.
  kShedInfeasible,
};

/// Overload protection (see docs/MODEL.md, "Admission control"). All caps
/// are evaluated at release instants, before the job becomes visible to the
/// policy: a rejected job fires no kRelease event and acquires no state, so
/// a run with admission disabled is bit-identical to one without the
/// feature. Only never-started jobs are ever shed, preserving the invariant
/// that a rejected or shed job has no recorded activity.
struct AdmissionConfig {
  /// Cap on resident (admitted, unfinished) jobs; 0 = unbounded.
  std::uint64_t max_live = 0;
  /// Cap on resident jobs holding no resource at the arrival instant;
  /// 0 = unbounded. Checked in O(live) per arrival, so prefer max_live for
  /// very high arrival rates.
  std::uint64_t max_queue = 0;
  AdmissionRule rule = AdmissionRule::kRejectNewest;
  /// Stretch bound used by kShedInfeasible; <= 0 disables shedding.
  double stretch_limit = 0.0;

  [[nodiscard]] bool enabled() const noexcept {
    return max_live > 0 || max_queue > 0 ||
           (rule == AdmissionRule::kShedInfeasible && stretch_limit > 0.0);
  }
};

/// One admission decision that refused service: a rejection at arrival or
/// the eviction (shed) of an admitted, never-started job.
struct AdmissionRecord {
  JobId job = -1;
  Time time = 0.0;
  ReasonCode reason = ReasonCode::kUnspecified;
  bool shed = false;  ///< false = rejected at arrival, true = evicted later
};

struct EngineConfig {
  /// Hard cap on processed events; 0 (the default) disables the absolute
  /// cap in favour of the events-since-completion watchdog below — an
  /// absolute cap is meaningless for an unbounded stream. Setting it keeps
  /// the historical behaviour: the run dies once total events exceed it.
  std::uint64_t max_events = 0;
  /// Progress watchdog: abort when this many events fire without a single
  /// job completing; 0 selects max(100'000, 512 * live). This turns a
  /// thrashing policy (endless re-executions) into a diagnosable error
  /// instead of a hang, even when the total event count is unbounded.
  std::uint64_t stall_events = 0;
  /// Overload protection; disabled by default (admission.enabled() false).
  AdmissionConfig admission;
  /// Record the full interval history. Disable to save memory on very large
  /// instances when only completion times are needed.
  bool record_schedule = true;
  /// Fill SimResult::completions. Disable (together with record_schedule)
  /// for soak-scale runs where only the stats matter — with both off the
  /// engine's memory is O(live), independent of total jobs (simulate()
  /// still holds the instance itself).
  bool record_completions = true;
  /// Measure the wall time spent inside the policy (two steady-clock reads
  /// per decision round, accumulated into SimStats::policy_seconds). The
  /// batch driver turns this off — at thousands of tiny replications the
  /// clock reads are measurable, and the driver times whole runs itself —
  /// so policy_seconds reads 0 there. Never affects simulation results.
  bool time_policy = true;
  /// Fill SimResult::admission_log (one record per rejection or shed).
  /// Under sustained overload the log grows with the REFUSED count, not the
  /// live set, so soak-scale runs must turn it off along with the two
  /// switches above; the rejections/sheds counters in SimStats (and the
  /// kReject/kShed trace instants) are unaffected.
  bool record_admission = true;
  /// Unannounced faults (see sim/faults.hpp). The ENGINE owns the plan —
  /// policies never see it and learn of a fault only through the
  /// EventKind::kFault / kRecovery events it triggers. Empty = fault-free.
  FaultPlan faults;
  /// Optional structured trace of the run (obs/trace.hpp): activity spans,
  /// instants and time-series samples at event granularity. Not owned; must
  /// outlive simulate(). Sinks are single-run, single-threaded objects.
  /// Null (the default) costs nothing: every emission sits behind a null
  /// check and a traced run is bit-identical to an untraced one.
  obs::TraceSink* trace = nullptr;
  /// Optional metrics registry (obs/metrics.hpp): engine-phase timers,
  /// stretch / queue-wait histograms, and counters mirroring SimStats. Not
  /// owned; thread-safe, so one registry may be shared across the runs of a
  /// parallel sweep to accumulate totals. Null = no bookkeeping.
  obs::MetricsRegistry* metrics = nullptr;
  /// Emit decision provenance: one TracePoint::kDirective instant per
  /// applied directive (reassignments always; keep-decisions deduplicated —
  /// re-confirming the same target for the same reason at every event is
  /// noise). Requires a trace destination (`trace` or `watchdog`); with
  /// neither it is inert. Off by default: provenance inflates traces and
  /// the engine's hot path must stay allocation-free when observability is
  /// off.
  bool provenance = false;
  /// Optional engine self-profiler (obs/profiler.hpp): calibrated tick
  /// timers over the engine's named phases plus a per-round
  /// decision-latency sketch keyed by policy name. Not owned; like a trace
  /// sink it is single-threaded — share one across SEQUENTIAL runs to
  /// accumulate (BatchEngine attaches one per resident world slot), never
  /// across concurrent ones. Null (the default) costs one predicted branch
  /// per phase boundary, performs zero allocations, and a profiled run is
  /// bit-identical to an unprofiled one (tests/test_profiler.cpp pins all
  /// three claims). Building with -DECS_PROFILE=0 removes the hooks
  /// entirely and this field is ignored.
  obs::EngineProfiler* profiler = nullptr;
  /// Optional progress heartbeat (obs/heartbeat.hpp) for long streaming /
  /// overload runs: the engine ticks it once per decision round with the
  /// sim clock, event count, live-set size and refusal count; the monitor
  /// rate-limits itself and writes to stderr (never stdout), plus optional
  /// JSONL. Not owned; thread-safe. Null (the default) costs nothing.
  obs::HeartbeatMonitor* heartbeat = nullptr;
  /// Optional online invariant watchdog (obs/watchdog.hpp): checks the
  /// one-port, precedence, no-migration, exclusivity and release invariants
  /// at the offending event. Not owned; must outlive simulate(). Setting a
  /// watchdog routes the trace stream into it (even when `trace` is null)
  /// and implies `provenance`, so violations can link the decisions that
  /// caused them. Null (the default) costs nothing.
  obs::InvariantWatchdog* watchdog = nullptr;
};

struct SimStats {
  std::uint64_t events = 0;        ///< releases + activity completions
  std::uint64_t decisions = 0;     ///< policy invocations
  std::uint64_t reassignments = 0; ///< progress-discarding moves
  std::uint64_t fault_aborts = 0;  ///< jobs aborted by cloud crashes
  std::uint64_t message_losses = 0;///< communications corrupted in flight
  /// Times a live job lost its resource while still needing it (a directive
  /// of higher priority, an announced outage boundary, or an unannounced
  /// crash freezing its cloud) without its allocation changing.
  std::uint64_t preemptions = 0;
  /// Uplink transmissions restarted from zero after an uplink message loss.
  std::uint64_t uplink_retransmits = 0;
  /// Downlink transmissions restarted after a downlink message loss (the
  /// execution result survives on the cloud; only the download is re-paid).
  std::uint64_t downlink_retransmits = 0;
  /// Largest number of live jobs simultaneously holding no resource
  /// observed after any decision round.
  std::uint64_t max_queue_depth = 0;
  /// High-water mark of the live set — the run's true working-set size.
  /// It bounds the engine's per-job state: it tracks load, not total n.
  std::uint64_t peak_live = 0;
  /// High-water mark of the id -> slot map (live jobs plus completed jobs
  /// awaiting their one-round retirement grace): the engine's per-job state
  /// size, in simulate() and simulate_stream() alike. The memory regression
  /// tests pin peak_tracked = O(peak_live) under adversarial completion
  /// orders.
  std::uint64_t peak_tracked = 0;
  std::uint64_t admitted = 0;    ///< jobs released past admission control
  std::uint64_t completed = 0;   ///< admitted jobs that finished
  std::uint64_t rejections = 0;  ///< arrivals refused at release
  std::uint64_t sheds = 0;       ///< admitted never-started jobs evicted
  double max_stretch = 0.0;      ///< max realized stretch over completed jobs
  double policy_seconds = 0.0;     ///< wall time spent inside the policy
};

struct SimResult {
  Schedule schedule;          ///< interval history (if recorded)
  /// C_i per job when record_completions (the default); -1 marks a job that
  /// never completed (rejected or shed by admission control).
  std::vector<Time> completions;
  /// Every kFault / kRecovery event fired during the run, in order — the
  /// realized fault trace, for replay and debugging.
  std::vector<Event> fault_log;
  /// Every admission rejection and shed, in order. Empty when admission is
  /// disabled.
  std::vector<AdmissionRecord> admission_log;
  SimStats stats;
};

/// Runs `policy` over `instance` until every admitted job completes. The
/// jobs arrive in (release, id) order through an InstanceArrivalStream, so
/// this is simulate_stream over that stream, with policy.reset() given the
/// full instance. Throws std::invalid_argument on an invalid instance, and
/// std::runtime_error on policy stalls (every live job left unallocated
/// with no pending event), when the explicit event cap is hit, or when the
/// progress watchdog trips.
[[nodiscard]] SimResult simulate(const Instance& instance, Policy& policy,
                                 const EngineConfig& config = {});

/// Streaming run: jobs arrive from `arrivals` over the platform and outage
/// calendar of `base`, whose own job list must be empty. Completed jobs
/// retire (their per-job state is recycled) so memory is O(peak_live), not
/// O(total jobs), once record_schedule / record_completions are off. Over
/// an InstanceArrivalStream the run is bit-identical to simulate() over
/// the instance, admission control included (tests/test_streaming.cpp
/// pins this).
[[nodiscard]] SimResult simulate_stream(const Instance& base,
                                        ArrivalStream& arrivals,
                                        Policy& policy,
                                        const EngineConfig& config = {});

}  // namespace ecs
