// engine_core.hpp - The reusable engine behind simulate(), simulate_stream()
// and the batch driver (sim/batch.hpp).
//
// EngineCore is the event loop of engine.hpp's contract, restructured for
// reuse: a default-constructed core is prepare()d against an (instance,
// policy, config) triple, stepped to completion, harvested with
// finish_into(), and then prepared again for the next run — every internal
// buffer keeps its capacity across runs, so a resident core performs zero
// steady-state allocations per replication. simulate() uses a throwaway
// core; BatchEngine keeps one per world slot.
//
// A decision round pays for what changed, not for what is live: the
// id-sorted live list is merged and compacted from the round's admissions
// and departures (sync_live_list), each directive's slot is looked up once
// and carried through arbitration, and the active set stays in grant order
// — only the few activities that fire are sorted by id, which keeps event,
// trace and retirement order exactly id-ordered (DESIGN.md §8).
//
// This header is internal (namespace ecs::detail): the supported entry
// points remain simulate() / simulate_stream() / BatchEngine. Tests include
// it to pin the reuse contract (a reused core is bit-identical to a fresh
// one).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "core/schedule.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/policy.hpp"
#include "sim/soa.hpp"

namespace ecs {

class ArrivalStream;

namespace detail {

/// Metric-instrument handles, resolved once per run so the hot path never
/// touches the registry's name maps. Only valid when a registry is set.
struct EngineInstruments {
  using Id = obs::MetricsRegistry::Id;
  Id events, decisions, reassignments, preemptions, fault_aborts;
  Id uplink_retransmits, downlink_retransmits, message_losses;
  Id rejections, sheds;       ///< admission-control refusals
  Id elided_rounds;           ///< decision rounds skipped via ElisionContract
  Id queue_depth;             ///< gauge; its max mirrors max_queue_depth
  Id peak_live;               ///< gauge; live-set high-water mark
  Id peak_tracked;            ///< gauge; id-map high-water mark (streaming)
  Id stretch, queue_wait;     ///< histograms
  Id phase_policy, phase_allocate, phase_activate, phase_faults;  ///< timers

  explicit EngineInstruments(obs::MetricsRegistry& registry);
};

/// Per-job recording of the currently open activity interval plus the
/// in-progress run record.
struct ActivityRecorder {
  RunRecord current;
  Activity open_activity = Activity::kNone;
  Time open_start = 0.0;

  void open(Activity activity, Time now) {
    open_activity = activity;
    open_start = now;
  }

  void close(Time now) {
    if (open_activity == Activity::kNone) return;
    switch (open_activity) {
      case Activity::kUplink:
        current.uplink.add(open_start, now);
        break;
      case Activity::kCompute:
        current.exec.add(open_start, now);
        break;
      case Activity::kDownlink:
        current.downlink.add(open_start, now);
        break;
      case Activity::kNone:
        break;
    }
    open_activity = Activity::kNone;
  }

  [[nodiscard]] bool has_history() const noexcept {
    return !current.uplink.empty() || !current.exec.empty() ||
           !current.downlink.empty();
  }
};

/// Busy markers for one decision round: which job holds each resource.
/// Lanes are epoch-stamped so clear() is O(1) — it bumps the round epoch
/// and every stale stamp reads as free — instead of six O(edges + clouds)
/// fills per decision round.
struct BusyMap {
  struct Lane {
    std::vector<JobId> owner;
    std::vector<std::uint32_t> stamp;

    void resize(std::size_t n) {
      owner.assign(n, -1);
      stamp.assign(n, 0);
    }
  };

  Lane edge_cpu, edge_send, edge_recv;
  Lane cloud_cpu, cloud_send, cloud_recv;
  std::uint32_t epoch = 1;

  void resize(const Platform& platform) {
    const auto edges = static_cast<std::size_t>(platform.edge_count());
    const auto clouds = static_cast<std::size_t>(platform.cloud_count());
    edge_cpu.resize(edges);
    edge_send.resize(edges);
    edge_recv.resize(edges);
    cloud_cpu.resize(clouds);
    cloud_send.resize(clouds);
    cloud_recv.resize(clouds);
    epoch = 1;
  }

  void clear() {
    if (++epoch == 0) {
      // Epoch wrap: stamps from 2^32 rounds ago could read as current.
      // Wipe them (rare) and restart at 1.
      for (Lane* lane : {&edge_cpu, &edge_send, &edge_recv, &cloud_cpu,
                         &cloud_send, &cloud_recv}) {
        std::fill(lane->stamp.begin(), lane->stamp.end(), 0U);
      }
      epoch = 1;
    }
  }

  [[nodiscard]] bool busy(const Lane& lane, std::size_t i) const noexcept {
    return lane.stamp[i] == epoch;
  }
  [[nodiscard]] JobId owner_of(const Lane& lane,
                               std::size_t i) const noexcept {
    return lane.stamp[i] == epoch ? lane.owner[i] : -1;
  }
  void claim(Lane& lane, std::size_t i, JobId id) noexcept {
    lane.owner[i] = id;
    lane.stamp[i] = epoch;
  }
};

/// One wake-up of the fault timeline: a crash start, a crash repair
/// (recovery), or a message-loss instant.
struct FaultWake {
  Time time = 0.0;
  std::size_t spec = 0;  ///< index into the plan
  bool recovery = false;
};

class EngineCore {
 public:
  EngineCore() = default;
  EngineCore(const EngineCore&) = delete;
  EngineCore& operator=(const EngineCore&) = delete;

  /// Binds the core to one run and resets every piece of run state (buffer
  /// capacity survives). Materialized mode: all jobs come from `instance`,
  /// slot == job id. Streaming mode (stream != nullptr): `instance` carries
  /// the platform and outage calendar only; jobs arrive from the stream and
  /// completed jobs retire, so per-job state is O(peak_live). The caller is
  /// responsible for policy.reset() — simulate() and BatchEngine both call
  /// it immediately before prepare(), preserving the historical order.
  void prepare(const Instance& instance, ArrivalStream* stream,
               Policy& policy, const EngineConfig& config);

  /// Runs at most `rounds` decision rounds (0 = unbounded); returns done().
  /// Chunked stepping is what lets a batch driver interleave worlds.
  bool step_rounds(std::uint64_t rounds);

  [[nodiscard]] bool done() const noexcept {
    if (!prepared_) return true;
    return streaming_ ? remaining_jobs_ <= 0 && !pending_.has_value()
                      : remaining_jobs_ <= 0;
  }

  /// Harvests the run into `out` (reusing its buffer capacity where
  /// possible) and emits the end-of-run observability records. Call once,
  /// after done().
  void finish_into(SimResult& out);

  /// Convenience: steps to completion and returns the harvested result.
  SimResult run();

  /// Decision rounds skipped via the policy's ElisionContract this run.
  /// Diagnostic only (tests assert elision actually engages); deliberately
  /// not part of SimStats — elided and non-elided runs must stay
  /// bit-identical in every reported result.
  [[nodiscard]] std::uint64_t elided_rounds() const noexcept {
    return elided_rounds_;
  }

 private:
  void init();

  /// id -> state slot. Identity (bounds-checked) outside streaming; the
  /// open-addressing id map under streaming. Inline: this sits on the
  /// arbitration inner loop, several calls per granted activity per round.
  [[nodiscard]] std::int32_t find_slot(JobId id) const noexcept {
    if (!streaming_) {
      return id >= 0 && id < static_cast<JobId>(pool_.size())
                 ? static_cast<std::int32_t>(id)
                 : kSlotRetired;
    }
    return id_map_.find(id);
  }

  void advance_stream();
  [[nodiscard]] Time next_activity_end() const;
  void fire_releases();
  void admit(const Job& job);
  std::int32_t acquire_slot(const Job& job);
  bool admission_allows(const Job& job);
  [[nodiscard]] std::uint64_t queued_count() const;
  [[nodiscard]] double stretch_lower_bound(std::int32_t slot) const;
  [[nodiscard]] bool sheddable(std::int32_t slot) const;
  void shed_infeasible(double limit);
  bool shed_most_hopeless();
  void reject(const Job& job);
  void shed(JobId id, ReasonCode reason);
  void retire_slot(std::int32_t slot);
  void flush_retired();
  void trace_close_span(std::int32_t slot);
  void trace_instant(obs::TracePoint point, std::int32_t slot, int cloud,
                     double value);
  void trace_directive(std::int32_t slot, int source, int target,
                       const Directive& d);
  void trace_keep_directive(std::int32_t slot, const Directive& d);
  void trace_counter(obs::TracePoint point, double value);
  void step();
  void decide_and_activate();
  void sample_counters(std::uint64_t waiting);
  void apply_directive(const Directive& d, std::int32_t slot);
  void note_preemption(std::int32_t slot);
  void try_activate(std::int32_t slot);
  [[nodiscard]] Time activity_end(std::int32_t slot) const;
  void advance_to_next_event();
  [[nodiscard]] std::string describe_live_jobs() const;
  void fire_faults();
  void abort_jobs_on_cloud(CloudId crashed);
  void corrupt_in_flight_message(const FaultSpec& spec);
  void push_fault_event(const Event& event);

  const Instance* instance_ = nullptr;
  const Platform* platform_ = nullptr;
  Policy* policy_ = nullptr;
  EngineConfig config_;
  BusyMap busy_;
  ArrivalStream* stream_ = nullptr;  ///< null in materialized mode
  bool streaming_ = false;
  bool prepared_ = false;
  bool record_schedule_ = true;  ///< cached config flag; gates the recorders

  soa::StatePool pool_;  ///< SoA per-slot state + AoS read cache
  std::vector<ActivityRecorder> recorders_;
  std::vector<std::pair<JobId, RunRecord>> abandoned_runs_;
  std::vector<JobId> release_order_;
  std::size_t next_release_ = 0;
  std::vector<Time> boundaries_;  ///< sorted outage begin/end wake-ups
  std::size_t next_boundary_ = 0;
  std::vector<FaultWake> wakes_;  ///< sorted fault-timeline wake-ups
  std::size_t next_wake_ = 0;
  std::vector<char> cloud_down_;  ///< crashed-and-not-yet-repaired flags
  std::vector<Event> fault_log_;  ///< realized kFault/kRecovery trace
  int remaining_jobs_ = 0;
  Time now_ = 0.0;
  std::vector<Event> events_;
  SimStats stats_;

  // --- active-set core: everything the per-event hot path touches ---
  /// Slots of jobs mid-activity, in grant order. Nothing that reads it
  /// depends on its order: the completion pass sorts what fired by id.
  std::vector<std::int32_t> active_ids_;
  soa::LiveIndex live_;            ///< sparse-set (id, slot) live index
  /// The live ids, ascending (what SimView::live_jobs() aliases), and the
  /// slot of each entry alongside. Brought up to date once per decision
  /// round by sync_live_list() from the batch of membership changes below:
  /// O(live + changes), no re-sort.
  std::vector<JobId> live_sorted_;
  std::vector<std::int32_t> live_slots_;
  std::vector<soa::LiveIndex::Entry> live_added_;  ///< admitted since sync
  bool live_erased_ = false;  ///< a completion or shed since the last sync
  std::vector<std::uint32_t> seen_round_;     ///< round stamp per slot
  std::uint32_t round_ = 0;
  std::vector<JobId> victims_;  ///< scratch for crash-abort / shed collection
  /// Activities that finished this event, sorted by id before any event,
  /// trace record or retirement is issued for them.
  std::vector<soa::LiveIndex::Entry> fired_;

  // --- no-op round elision (ElisionContract, see sim/policy.hpp) ---
  /// The policy's contract, cached per run; triggers always include
  /// kFault/kRecovery.
  ElisionContract elide_;
  bool decided_once_ = false;    ///< directives_ holds a real decide() output
  /// Live membership changed since the last real decide() — admissions,
  /// sheds and completions all set it; kReuse elision requires it clear.
  bool membership_changed_ = true;
  std::uint64_t elided_rounds_ = 0;

  /// Every live-set mutation funnels through these two: the change is
  /// queued for the sorted live list, and reuse-mode elision is off until
  /// the next decide().
  void note_live_insert(JobId id, std::int32_t slot) {
    live_added_.push_back(soa::LiveIndex::Entry{id, slot});
    membership_changed_ = true;
  }
  void note_live_erase() noexcept {
    live_erased_ = true;
    membership_changed_ = true;
  }
  void sync_live_list();
  [[nodiscard]] bool live_list_matches_index() const;

  // --- streaming mode (engaged iff streaming_) ---
  static constexpr std::int32_t kSlotRetired = -1;  ///< no state: id is done
  std::optional<Job> pending_;       ///< next arrival, not yet released
  Time last_arrival_ = -kTimeInfinity;
  JobId next_id_ = 0;                ///< one past the largest id ever seen
  soa::IdMap id_map_;                ///< id -> slot for tracked ids
  std::vector<std::int32_t> free_slots_;    ///< recycled state slots
  std::vector<std::int32_t> retire_queue_;  ///< completed, one round grace
  std::vector<std::pair<JobId, Time>> completion_log_;
  std::vector<std::pair<JobId, RunRecord>> final_runs_;

  // --- admission control ---
  bool admission_on_ = false;
  std::vector<AdmissionRecord> admission_log_;

  // --- progress watchdog ---
  static constexpr std::uint64_t kStallFloor = 100'000;
  std::uint64_t events_since_completion_ = 0;

  /// One arbitration entry: the directive's priority and job, with the
  /// state slot resolved once when the directive is applied.
  struct Ranked {
    double priority;
    JobId id;
    std::int32_t slot;
  };

  // Scratch buffers reused across decision rounds.
  std::vector<Ranked> order_;
  std::vector<Directive> directives_;  ///< policy output, reused per round

  // --- observability (null sinks = everything below stays idle) ---
  obs::TraceSink* trace_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  /// Self-profiler (obs/profiler.hpp): lap hooks at every phase boundary
  /// of step(). Forced null under -DECS_PROFILE=0 so the branches fold
  /// away; null at runtime costs one predicted branch per boundary.
  obs::EngineProfiler* profiler_ = nullptr;
  obs::HeartbeatMonitor* heartbeat_ = nullptr;  ///< ticked once per round
  std::optional<EngineInstruments> ids_;  ///< engaged iff metrics_ != nullptr
  obs::TeeTraceSink tee_;  ///< user sink + watchdog, when a watchdog is set
  bool provenance_on_ = false;
  /// Sentinel for "no directive emitted yet" in last_dir_target_ (any
  /// value no allocation can take).
  static constexpr int kDirectiveNone = std::numeric_limits<int>::min();
  std::vector<int> last_dir_target_;  ///< keep-dedup state (provenance only)
  std::vector<int> last_dir_reason_;

  /// Open trace span per job. Tracked separately from ActivityRecorder
  /// because recorder intervals close and reopen on every decision round,
  /// while a trace span runs until a true boundary: completion, preemption,
  /// reassignment, fault abort, or message loss.
  struct SpanState {
    Activity activity = Activity::kNone;
    int alloc = kAllocUnassigned;
    Time begin = 0.0;
  };
  std::vector<SpanState> spans_;  ///< sized only when tracing
  std::vector<int> run_index_;    ///< bumped per reassignment / fault abort
  std::vector<char> started_;     ///< first activation already observed
  std::uint64_t granted_ = 0;     ///< resources granted this decision round
};

}  // namespace detail
}  // namespace ecs
