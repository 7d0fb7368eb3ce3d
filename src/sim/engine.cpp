// engine.cpp - EngineCore: the event loop behind simulate(),
// simulate_stream() and the batch driver. See engine_core.hpp for the
// reuse contract and sim/soa.hpp for the SoA state layout.
#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/validate.hpp"
#include "obs/heartbeat.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "sim/arrivals.hpp"
#include "sim/engine_core.hpp"

namespace ecs {
namespace detail {
namespace {

[[nodiscard]] obs::TracePoint span_point(Activity activity) {
  switch (activity) {
    case Activity::kUplink:
      return obs::TracePoint::kUplink;
    case Activity::kDownlink:
      return obs::TracePoint::kDownlink;
    case Activity::kCompute:
    case Activity::kNone:
      break;
  }
  return obs::TracePoint::kExec;
}

/// Orders (id, slot) entries by job id.
[[nodiscard]] bool id_less(const soa::LiveIndex::Entry& a,
                           const soa::LiveIndex::Entry& b) noexcept {
  return a.id < b.id;
}

}  // namespace

EngineInstruments::EngineInstruments(obs::MetricsRegistry& registry)
    : events(registry.counter("engine.events")),
      decisions(registry.counter("engine.decisions")),
      reassignments(registry.counter("engine.reassignments")),
      preemptions(registry.counter("engine.preemptions")),
      fault_aborts(registry.counter("engine.fault_aborts")),
      uplink_retransmits(registry.counter("engine.uplink_retransmits")),
      downlink_retransmits(registry.counter("engine.downlink_retransmits")),
      message_losses(registry.counter("engine.message_losses")),
      rejections(registry.counter("engine.rejections")),
      sheds(registry.counter("engine.sheds")),
      elided_rounds(registry.counter("engine.elided_rounds")),
      queue_depth(registry.gauge("engine.ready_queue_depth")),
      peak_live(registry.gauge("engine.peak_live")),
      peak_tracked(registry.gauge("engine.peak_tracked")),
      stretch(registry.histogram(
          "job.stretch", {1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0,
                          24.0, 32.0, 64.0, 128.0})),
      queue_wait(registry.histogram(
          "job.queue_wait",
          {0.0, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0})),
      phase_policy(registry.timer("engine.phase.policy")),
      phase_allocate(registry.timer("engine.phase.allocate")),
      phase_activate(registry.timer("engine.phase.activate")),
      phase_faults(registry.timer("engine.phase.faults")) {}

void EngineCore::prepare(const Instance& instance, ArrivalStream* stream,
                         Policy& policy, const EngineConfig& config) {
  instance_ = &instance;
  platform_ = &instance.platform;
  policy_ = &policy;
  stream_ = stream;
  streaming_ = stream != nullptr;
  prepared_ = false;
  config_ = config;
  trace_ = config.trace;
  metrics_ = config.metrics;
  // A watchdog taps the trace stream through an internal tee, so it works
  // with or without a user trace sink attached.
  tee_ = obs::TeeTraceSink{};
  if (config.watchdog != nullptr) {
    tee_.add(config.trace);
    tee_.add(config.watchdog);
    trace_ = &tee_;
  }
  provenance_on_ =
      (config.provenance || config.watchdog != nullptr) && trace_ != nullptr;
#if ECS_PROFILE
  profiler_ = config.profiler;
#else
  profiler_ = nullptr;  // kill switch: every hook below folds away
#endif
  heartbeat_ = config.heartbeat;
  if (profiler_ != nullptr) profiler_->begin_run(policy.name());
  ids_.reset();
  if (metrics_ != nullptr) ids_.emplace(*metrics_);
  if (streaming_ && !instance_->jobs.empty()) {
    throw std::invalid_argument(
        "simulate_stream: the base instance must have an empty job list "
        "(jobs come from the arrival stream)");
  }
  require_valid_instance(*instance_);
  config_.faults.normalize();
  require_valid_fault_plan(config_.faults, *platform_);
  admission_on_ = config_.admission.enabled();
  record_schedule_ = config_.record_schedule;
  elide_ = policy.elision();
  // Faults and recoveries rewrite allocations behind the policy's back, so
  // no contract may claim invariance across them: force them as triggers.
  elide_.triggers |= ElisionContract::bit(EventKind::kFault) |
                     ElisionContract::bit(EventKind::kRecovery);
  busy_.resize(*platform_);
  init();
  prepared_ = true;
  if (profiler_ != nullptr) profiler_->lap(obs::EnginePhase::kPrepare);
}

void EngineCore::init() {
  const int n = streaming_ ? 0 : instance_->job_count();
  // Reset every piece of run state; a reused core starts exactly like a
  // fresh one, but with its buffer capacity intact.
  pool_.reset(static_cast<std::size_t>(n));
  if (record_schedule_) {
    recorders_.assign(static_cast<std::size_t>(n), ActivityRecorder{});
  } else {
    recorders_.clear();  // never touched below; skip the O(n) fill
  }
  started_.assign(static_cast<std::size_t>(n), 0);
  live_.reset(static_cast<std::size_t>(n));
  seen_round_.assign(static_cast<std::size_t>(n), 0);
  round_ = 0;
  events_.clear();
  fault_log_.clear();
  admission_log_.clear();
  abandoned_runs_.clear();
  active_ids_.clear();
  live_sorted_.clear();
  live_slots_.clear();
  live_added_.clear();
  live_erased_ = false;
  victims_.clear();
  fired_.clear();
  order_.clear();
  directives_.clear();
  boundaries_.clear();
  wakes_.clear();
  release_order_.clear();
  free_slots_.clear();
  retire_queue_.clear();
  completion_log_.clear();
  final_runs_.clear();
  id_map_.clear();
  pending_.reset();
  last_arrival_ = -kTimeInfinity;
  next_id_ = 0;
  next_release_ = 0;
  stats_ = SimStats{};
  events_since_completion_ = 0;
  granted_ = 0;
  now_ = 0.0;
  decided_once_ = false;
  membership_changed_ = true;
  elided_rounds_ = 0;

  if (trace_ != nullptr) {
    spans_.assign(static_cast<std::size_t>(n), SpanState{});
    run_index_.assign(static_cast<std::size_t>(n), 0);
    if (provenance_on_) {
      last_dir_target_.assign(static_cast<std::size_t>(n), kDirectiveNone);
      last_dir_reason_.assign(static_cast<std::size_t>(n), 0);
    }
    obs::TraceMeta meta;
    meta.policy = policy_->name();
    meta.edge_count = platform_->edge_count();
    meta.cloud_count = platform_->cloud_count();
    if (streaming_) {
      const std::int64_t total = stream_->remaining();
      meta.job_count =
          total >= 0 && total <= std::numeric_limits<int>::max()
              ? static_cast<int>(total)
              : -1;
    } else {
      meta.job_count = n;
    }
    trace_->begin_trace(meta);
  }
  for (int i = 0; i < n; ++i) {
    pool_.job(i) = instance_->jobs[i];
    pool_.best_time(i) = platform_->best_time(pool_.job(i));
  }
  // Outage boundaries (cloud availability windows): every begin and end
  // is a wake-up point where the engine re-arbitrates, so an in-flight
  // activity on a cloud that becomes unavailable is preempted exactly at
  // the boundary and can resume at the next one.
  for (const IntervalSet& outages : instance_->cloud_outages) {
    for (const Interval& iv : outages.intervals()) {
      boundaries_.push_back(iv.begin);
      boundaries_.push_back(iv.end);
    }
  }
  std::sort(boundaries_.begin(), boundaries_.end());
  next_boundary_ = 0;

  // Fault timeline: a wake-up per crash start, crash repair, and loss
  // instant, so every fault lands exactly on an engine event. Recoveries
  // sort before same-instant faults (a cloud repaired at t can crash
  // again at t, never the other way around).
  cloud_down_.assign(platform_->cloud_count(), 0);
  for (std::size_t f = 0; f < config_.faults.faults.size(); ++f) {
    const FaultSpec& spec = config_.faults.faults[f];
    wakes_.push_back(FaultWake{spec.begin, f, false});
    if (spec.kind == FaultKind::kCrash) {
      wakes_.push_back(FaultWake{spec.end, f, true});
    }
  }
  std::sort(wakes_.begin(), wakes_.end(),
            [](const FaultWake& a, const FaultWake& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.recovery != b.recovery) return a.recovery;
              return a.spec < b.spec;
            });
  next_wake_ = 0;

  if (streaming_) {
    remaining_jobs_ = 0;
    advance_stream();
    // Jump to the first arrival; faults scheduled earlier fire now (no
    // job existed to be hit, but the down/up state and the monitoring
    // events must be correct from the very first decision).
    now_ = pending_ ? pending_->release : 0.0;
  } else {
    release_order_.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) release_order_[i] = i;
    std::sort(release_order_.begin(), release_order_.end(),
              [&](JobId a, JobId b) {
                const Time ra = pool_.job(a).release;
                const Time rb = pool_.job(b).release;
                return ra != rb ? ra < rb : a < b;
              });
    next_release_ = 0;
    remaining_jobs_ = n;
    now_ = n > 0 ? pool_.job(release_order_[0]).release : 0.0;
  }
  fire_faults();
  fire_releases();
  stats_.events += events_.size();
  events_since_completion_ += events_.size();
}

/// Pulls the next arrival into pending_, enforcing the stream contract.
void EngineCore::advance_stream() {
  pending_ = stream_->next();
  if (!pending_) return;
  const Job& job = *pending_;
  if (job.id < 0 || id_map_.find(job.id) >= 0) {
    throw std::runtime_error(
        "arrival stream " + stream_->name() +
        " emitted a duplicate or negative job id " + std::to_string(job.id));
  }
  if (!(job.release >= last_arrival_)) {
    std::ostringstream os;
    os << "arrival stream " << stream_->name()
       << " emitted decreasing release dates (" << job.release << " after "
       << last_arrival_ << ", job " << job.id << ")";
    throw std::runtime_error(os.str());
  }
  const std::string problem = validate_job(job, platform_->edge_count());
  if (!problem.empty()) {
    throw std::runtime_error("arrival stream " + stream_->name() +
                             " emitted an invalid job: " + problem);
  }
  last_arrival_ = job.release;
  if (job.id >= next_id_) next_id_ = job.id + 1;
}

// --- next-event prediction over the active set ---

/// Earliest predicted activity end (infinity when nothing is running).
/// Every decision round deactivates and re-grants the whole active set, so
/// each member's anchor is now_ and its end time is one clamp + divide away
/// — a branch-lean linear scan over the SoA hot fields. This replaced a
/// lazy-deletion heap: with every entry re-pushed every round the heap was
/// all maintenance and no reuse (see DESIGN.md §8).
Time EngineCore::next_activity_end() const {
  Time next = kTimeInfinity;
  for (const std::int32_t slot : active_ids_) {
    next = std::min(next, activity_end(slot));
  }
  return next;
}

/// Releases every arrival due at `now_` (within tolerance), each one
/// routed through admission control.
void EngineCore::fire_releases() {
  if (streaming_) {
    while (pending_ && time_le(pending_->release, now_)) {
      const Job job = *pending_;
      advance_stream();
      admit(job);
    }
  } else {
    while (next_release_ < release_order_.size()) {
      const JobId id = release_order_[next_release_];
      if (!time_le(pool_.job(id).release, now_)) break;
      ++next_release_;
      admit(pool_.job(id));
    }
  }
}

// --- admission control (EngineConfig::admission) ---

/// Admits one arrival: with admission disabled this is exactly the plain
/// release path (live insert + kRelease event + trace instant). A
/// rejected arrival leaves no trace besides the kReject instant and the
/// admission log — policies never learn it existed.
void EngineCore::admit(const Job& job) {
  if (admission_on_ && !admission_allows(job)) return;
  const std::int32_t slot = acquire_slot(job);
  pool_.released(slot) = 1;
  live_.insert(job.id, slot);
  note_live_insert(job.id, slot);
  if (streaming_) ++remaining_jobs_;
  ++stats_.admitted;
  if (live_.size() > stats_.peak_live) {
    stats_.peak_live = live_.size();
  }
  events_.push_back(Event{EventKind::kRelease, job.id, now_});
  if (trace_ != nullptr) {
    trace_instant(obs::TracePoint::kRelease, slot, -1, 0.0);
  }
}

/// Finds (or creates) the state slot for an admitted arrival. In
/// materialized mode the slot is the job id (pool sized in init); in
/// streaming mode slots are recycled through a free list.
std::int32_t EngineCore::acquire_slot(const Job& job) {
  if (!streaming_) return static_cast<std::int32_t>(job.id);
  std::int32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    pool_.clear_slot(slot);
  } else {
    slot = pool_.grow();
    if (record_schedule_) recorders_.emplace_back();
    started_.push_back(0);
    live_.grow();
    seen_round_.push_back(0);
    if (trace_ != nullptr) {
      spans_.emplace_back();
      run_index_.push_back(0);
    }
    if (provenance_on_) {
      last_dir_target_.push_back(kDirectiveNone);
      last_dir_reason_.push_back(0);
    }
  }
  pool_.job(slot) = job;
  pool_.best_time(slot) = platform_->best_time(job);
  if (record_schedule_) recorders_[slot] = ActivityRecorder{};
  started_[slot] = 0;
  seen_round_[slot] = 0;
  if (trace_ != nullptr) {
    spans_[slot] = SpanState{};
    run_index_[slot] = 0;
  }
  if (provenance_on_) {
    last_dir_target_[slot] = kDirectiveNone;
    last_dir_reason_[slot] = 0;
  }
  id_map_.insert(job.id, slot);
  if (id_map_.size() > stats_.peak_tracked) {
    stats_.peak_tracked = id_map_.size();
  }
  return slot;
}

/// Applies the configured shed rule, then the caps. Returns true when the
/// arrival may be admitted; otherwise records and traces the rejection.
bool EngineCore::admission_allows(const Job& job) {
  const AdmissionConfig& adm = config_.admission;
  if (adm.rule == AdmissionRule::kShedInfeasible && adm.stretch_limit > 0.0) {
    shed_infeasible(std::max(adm.stretch_limit, 1.0));
  }
  const bool over_live = adm.max_live > 0 && live_.size() >= adm.max_live;
  const bool over_queue =
      adm.max_queue > 0 && queued_count() >= adm.max_queue;
  if (!over_live && !over_queue) return true;
  if (adm.rule == AdmissionRule::kRejectHopeless && shed_most_hopeless()) {
    return true;
  }
  reject(job);
  return false;
}

/// Live jobs holding no resource at this instant (the admission queue).
std::uint64_t EngineCore::queued_count() const {
  std::uint64_t waiting = 0;
  for (const soa::LiveIndex::Entry& e : live_) {
    if (pool_.active(e.slot) == Activity::kNone) ++waiting;
  }
  return waiting;
}

/// Stretch lower bound of a never-started resident: even started now on
/// its best resource it finishes no earlier than now_ + best_time.
double EngineCore::stretch_lower_bound(std::int32_t slot) const {
  const double best = pool_.best_time(slot);
  const double denom = best > 0.0 ? best : 1.0;
  return (now_ - pool_.job(slot).release + best) / denom;
}

/// A resident may be shed only if it never started (so the "no recorded
/// activity" invariant holds) and was released strictly before this
/// event batch (so no event in flight can still reference it).
bool EngineCore::sheddable(std::int32_t slot) const {
  return started_[slot] == 0 && !time_le(now_, pool_.job(slot).release);
}

/// kShedInfeasible: evicts every sheddable resident whose stretch lower
/// bound already exceeds `limit` — its deadline release + limit *
/// best_time cannot be met no matter what the policy does.
void EngineCore::shed_infeasible(double limit) {
  victims_.clear();
  for (const soa::LiveIndex::Entry& e : live_) {
    if (!sheddable(e.slot)) continue;
    if (stretch_lower_bound(e.slot) > limit) victims_.push_back(e.id);
  }
  std::sort(victims_.begin(), victims_.end());
  for (const JobId id : victims_) {
    shed(id, ReasonCode::kAdmissionDeadlineInfeasible);
  }
}

/// kRejectHopeless: evicts the sheddable resident with the worst stretch
/// lower bound, provided it is worse than the arrival's own (1.0 at its
/// release). Ties prefer the newest (largest id). Returns true when a
/// victim was shed, making room for the arrival.
bool EngineCore::shed_most_hopeless() {
  JobId worst = -1;
  double worst_lb = 1.0;
  for (const soa::LiveIndex::Entry& e : live_) {
    if (!sheddable(e.slot)) continue;
    const double lb = stretch_lower_bound(e.slot);
    if (lb > worst_lb) {
      worst = e.id;
      worst_lb = lb;
    } else if (lb == worst_lb && worst >= 0 && e.id > worst) {
      worst = e.id;
    }
  }
  if (worst < 0) return false;
  shed(worst, ReasonCode::kAdmissionStretchHopeless);
  return true;
}

/// Refuses an arrival: no state, no kRelease event, only the kReject
/// instant (value = resident count at refusal) and the admission log.
void EngineCore::reject(const Job& job) {
  ++stats_.rejections;
  if (!streaming_) --remaining_jobs_;
  if (config_.record_admission) {
    admission_log_.push_back(
        AdmissionRecord{job.id, now_, ReasonCode::kAdmissionQueueFull, false});
  }
  if (trace_ != nullptr) {
    obs::TraceRecord rec;
    rec.kind = obs::TraceKind::kInstant;
    rec.point = obs::TracePoint::kReject;
    rec.job = job.id;
    rec.origin = job.origin;
    rec.begin = rec.end = now_;
    rec.value = static_cast<double>(live_.size());
    rec.reason = static_cast<int>(ReasonCode::kAdmissionQueueFull);
    trace_->record(rec);
  }
  // A rejected id acquires no slot and is never entered into the id map,
  // so there is nothing to clean up in streaming mode.
}

/// Evicts an admitted, never-started resident (value = its stretch lower
/// bound at eviction). Its slot is recycled immediately in streaming mode
/// — nothing in flight references a never-started job released before
/// this batch.
void EngineCore::shed(JobId id, ReasonCode reason) {
  const std::int32_t slot = find_slot(id);
  if (trace_ != nullptr) {
    obs::TraceRecord rec;
    rec.kind = obs::TraceKind::kInstant;
    rec.point = obs::TracePoint::kShed;
    rec.job = id;
    rec.run = run_index_.empty() ? 0 : run_index_[slot];
    rec.origin = pool_.job(slot).origin;
    rec.alloc = pool_.alloc(slot);
    rec.begin = rec.end = now_;
    rec.value = stretch_lower_bound(slot);
    rec.reason = static_cast<int>(reason);
    trace_->record(rec);
  }
  live_.erase(slot);
  note_live_erase();
  pool_.released(slot) = 0;  // expelled: live() is false from here on
  ++stats_.sheds;
  --remaining_jobs_;
  if (config_.record_admission) {
    admission_log_.push_back(AdmissionRecord{id, now_, reason, true});
  }
  if (streaming_) retire_slot(slot);
}

/// Recycles a slot (streaming only): harvests its run record and
/// completion time into the result logs and returns the slot to the free
/// list.
void EngineCore::retire_slot(std::int32_t slot) {
  const JobId id = pool_.job(slot).id;
  if (record_schedule_) {
    ActivityRecorder& rec = recorders_[slot];
    rec.close(now_);
    final_runs_.emplace_back(id, std::move(rec.current));
    rec.current = RunRecord{};
  }
  if (config_.record_completions && pool_.done(slot) != 0) {
    completion_log_.emplace_back(id, pool_.completion(slot));
  }
  id_map_.erase(id);
  free_slots_.push_back(slot);
}

/// Retires every job whose completion events the policy has now seen.
void EngineCore::flush_retired() {
  for (const std::int32_t slot : retire_queue_) retire_slot(slot);
  retire_queue_.clear();
}

// --- trace emission helpers; callers guard on trace_ != nullptr ---

/// Closes the slot's open activity span, emitting it ending at `now_`.
void EngineCore::trace_close_span(std::int32_t slot) {
  SpanState& span = spans_[slot];
  if (span.activity == Activity::kNone) return;
  obs::TraceRecord rec;
  rec.kind = obs::TraceKind::kSpan;
  rec.point = span_point(span.activity);
  rec.job = pool_.job(slot).id;
  rec.run = run_index_[slot];
  rec.alloc = span.alloc;
  rec.origin = pool_.job(slot).origin;
  rec.begin = span.begin;
  rec.end = now_;
  trace_->record(rec);
  span.activity = Activity::kNone;
}

/// `slot` < 0 emits a job-less instant (rec.job = -1).
void EngineCore::trace_instant(obs::TracePoint point, std::int32_t slot,
                               int cloud, double value) {
  obs::TraceRecord rec;
  rec.kind = obs::TraceKind::kInstant;
  rec.point = point;
  rec.cloud = cloud;
  rec.begin = rec.end = now_;
  rec.value = value;
  if (slot >= 0) {
    rec.job = pool_.job(slot).id;
    rec.run = run_index_[slot];
    rec.origin = pool_.job(slot).origin;
    rec.alloc = pool_.alloc(slot);
  }
  trace_->record(rec);
}

/// Emits one decision-provenance instant (TracePoint::kDirective):
/// alloc = resolved target, cloud = allocation before the directive,
/// value = priority, reason = the policy's ReasonCode. Caller guards on
/// provenance_on_.
void EngineCore::trace_directive(std::int32_t slot, int source, int target,
                                 const Directive& d) {
  obs::TraceRecord rec;
  rec.kind = obs::TraceKind::kInstant;
  rec.point = obs::TracePoint::kDirective;
  rec.job = pool_.job(slot).id;
  rec.run = run_index_[slot];
  rec.origin = pool_.job(slot).origin;
  rec.alloc = target;
  rec.cloud = source;
  rec.begin = rec.end = now_;
  rec.value = d.priority;
  rec.reason = static_cast<int>(d.reason);
  trace_->record(rec);
  last_dir_target_[slot] = target;
  last_dir_reason_[slot] = static_cast<int>(d.reason);
}

/// Provenance for a directive that does not move the job (kTargetKeep or
/// an explicit re-confirmation of the current allocation). Policies emit
/// these at EVERY event, so identical repeats are deduplicated: a keep is
/// recorded when its resolved target or reason differs from the job's
/// last emitted directive.
void EngineCore::trace_keep_directive(std::int32_t slot,
                                      const Directive& d) {
  if (slot < 0) return;
  if (!pool_.live(slot)) return;
  const int alloc = pool_.alloc(slot);
  if (last_dir_target_[slot] == alloc &&
      last_dir_reason_[slot] == static_cast<int>(d.reason)) {
    return;
  }
  trace_directive(slot, alloc, alloc, d);
}

void EngineCore::trace_counter(obs::TracePoint point, double value) {
  obs::TraceRecord rec;
  rec.kind = obs::TraceKind::kCounter;
  rec.point = point;
  rec.begin = rec.end = now_;
  rec.value = value;
  trace_->record(rec);
}

void EngineCore::step() {
  // Re-anchor the profiler's lap clock: everything between here and the
  // next lap() belongs to the first phase of this round.
  if (profiler_ != nullptr) profiler_->mark();
  decide_and_activate();
  advance_to_next_event();
}

/// Brings the sorted live list up to date with the membership changes
/// since the last round: the admitted entries (few, sorted by id here) are
/// merged in from the back, then the erased ones are compacted out. An
/// entry is current iff its slot is live and still holds its id — a shed
/// slot can be recycled for a new arrival within the same batch. O(live +
/// changes); nothing when membership did not change.
void EngineCore::sync_live_list() {
  if (!live_added_.empty()) {
    if (!std::is_sorted(live_added_.begin(), live_added_.end(), id_less)) {
      std::sort(live_added_.begin(), live_added_.end(), id_less);
    }
    std::size_t i = live_sorted_.size();
    std::size_t j = live_added_.size();
    std::size_t k = i + j;
    live_sorted_.resize(k);
    live_slots_.resize(k);
    while (j > 0) {
      --k;
      if (i > 0 && live_sorted_[i - 1] > live_added_[j - 1].id) {
        --i;
        live_sorted_[k] = live_sorted_[i];
        live_slots_[k] = live_slots_[i];
      } else {
        --j;
        live_sorted_[k] = live_added_[j].id;
        live_slots_[k] = live_added_[j].slot;
      }
    }
    live_added_.clear();
  }
  if (live_erased_) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < live_sorted_.size(); ++i) {
      const std::int32_t slot = live_slots_[i];
      if (!pool_.live(slot) || pool_.job(slot).id != live_sorted_[i]) {
        continue;
      }
      live_sorted_[kept] = live_sorted_[i];
      live_slots_[kept] = slot;
      ++kept;
    }
    live_sorted_.resize(kept);
    live_slots_.resize(kept);
    live_erased_ = false;
  }
  assert(live_list_matches_index());
}

/// The sorted live list equals the LiveIndex contents sorted by id, slots
/// included: strictly ascending ids, as many entries as the index holds,
/// and each entry's slot indexed and holding that id. O(live) and
/// allocation-free, so assertion-enabled builds keep the engine's
/// no-allocation stepping.
bool EngineCore::live_list_matches_index() const {
  if (live_sorted_.size() != live_.size()) return false;
  for (std::size_t i = 0; i < live_sorted_.size(); ++i) {
    const std::int32_t slot = live_slots_[i];
    if ((i > 0 && live_sorted_[i - 1] >= live_sorted_[i]) ||
        !live_.contains(slot) || pool_.job(slot).id != live_sorted_[i]) {
      return false;
    }
  }
  return true;
}

void EngineCore::decide_and_activate() {
  // 1. Ask the policy what to do about the events that just fired. The
  //    sorted live list gives SimView::live_jobs() in O(live) and, below,
  //    the id-ordered implicit-keep walk the old full-state scan provided.
  //    Rounds that left membership alone find it already current.
  sync_live_list();
  // No-op round elision (ElisionContract, DESIGN.md §8): when no event of
  // this batch is in the policy's trigger set, decide() provably would emit
  // nothing (kEmpty) or re-emit the previous round's directives verbatim
  // (kReuse, additionally requiring unchanged live membership so no stale
  // id resurfaces) — so the engine skips the call and applies that output
  // directly. Behaviorally invisible: the round still counts as a decision,
  // still traces, and re-applying kept directives is idempotent (the
  // keep-dedup path in apply_directive).
  bool elided = false;
  if (elide_.mode != ElisionContract::Mode::kNone && decided_once_) {
    bool triggered = false;
    for (const Event& e : events_) {
      if ((elide_.triggers & ElisionContract::bit(e.kind)) != 0U) {
        triggered = true;
        break;
      }
    }
    if (!triggered) {
      elided = elide_.mode == ElisionContract::Mode::kEmptyUnlessTriggered ||
               !membership_changed_;
    }
  }
  // One buffer, reused round after round: with the per-policy workspaces
  // (DESIGN.md §6) the steady-state policy hot path allocates nothing. An
  // elided kReuse round keeps the previous contents untouched.
  std::vector<Directive>& directives = directives_;
  if (elided) {
    if (elide_.mode == ElisionContract::Mode::kEmptyUnlessTriggered) {
      directives.clear();
    }
    ++elided_rounds_;
  } else {
    // Every component write since the last decide() is behind us: stale
    // the AoS read cache so state()/states() republish on first read.
    pool_.invalidate_view();
    const soa::IdMap* ids = streaming_ ? &id_map_ : nullptr;
    const SimView view(*instance_, pool_, now_, &live_sorted_, ids);
    // Two steady-clock reads per round are measurable at batch scale, so
    // the policy timer sits behind a switch (EngineConfig::time_policy); a
    // metrics registry needs the readings for its phase timer either way.
    const bool timed = config_.time_policy || metrics_ != nullptr;
    std::chrono::steady_clock::time_point t0;
    if (timed) t0 = std::chrono::steady_clock::now();
    directives.clear();
    policy_->decide(view, events_, directives);
    if (timed) {
      const auto t1 = std::chrono::steady_clock::now();
      stats_.policy_seconds += std::chrono::duration<double>(t1 - t0).count();
      if (metrics_ != nullptr) {
        metrics_->add_nanos(
            ids_->phase_policy,
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                    .count()));
      }
    }
    decided_once_ = true;
    membership_changed_ = false;
  }
  ++stats_.decisions;
  if (trace_ != nullptr) {
    trace_instant(obs::TracePoint::kDecision, -1, -1,
                  static_cast<double>(directives.size()));
  }
  events_.clear();
  // kDecide covers the live-list sync, the elision check and decide()
  // itself; the lap also feeds the per-policy decision-latency sketch.
  // Elided rounds are observed too — elision is a real latency win and
  // belongs in the distribution (ProfileReport::elided_rounds separates
  // the populations).
  if (profiler_ != nullptr) profiler_->lap_decision();

  // 2. Close all open intervals; they will reopen seamlessly below
  //    (IntervalSet::add merges touching pieces). A job still mid-activity
  //    is flagged so arbitration can spot preemptions: only these jobs —
  //    at most one per processor or port — can lose a resource they still
  //    need. The flag is consumed inside this round (apply_directive or
  //    try_activate), never carried over. Only members of the active set
  //    can be mid-activity; entries already stopped by a completion,
  //    fault abort or message loss are skipped.
  for (const std::int32_t slot : active_ids_) {
    if (pool_.active(slot) != Activity::kNone) {
      pool_.was_active(slot) = 1;
      if (record_schedule_) recorders_[slot].close(now_);
      pool_.active(slot) = Activity::kNone;
    }
  }
  active_ids_.clear();
  // Completed jobs retire only now: the policy has consumed their
  // completion events above, so nothing references the slots any more.
  if (streaming_ && !retire_queue_.empty()) flush_retired();

  // 3. Apply allocation changes (the re-execution rule). Each directive's
  //    slot is looked up here, once; directives for live jobs enter the
  //    arbitration order carrying it.
  {
    const obs::ScopeTimer timer(
        metrics_, metrics_ != nullptr ? ids_->phase_allocate : 0);
    order_.clear();
    for (const Directive& d : directives) {
      const std::int32_t slot = find_slot(d.job);
      apply_directive(d, slot);
      if (slot >= 0 && pool_.live(slot)) {
        order_.push_back(Ranked{d.priority, d.job, slot});
      }
    }
  }
  if (profiler_ != nullptr) profiler_->lap(obs::EnginePhase::kAllocate);

  // 4. Activate activities in priority order. Jobs without an explicit
  //    directive keep their allocation at the lowest priority, ordered by
  //    id, so the engine stays work-conserving and deterministic.
  granted_ = 0;
  {
    const obs::ScopeTimer timer(
        metrics_, metrics_ != nullptr ? ids_->phase_activate : 0);
    if (directives.empty()) {
      // Fast path: no explicit directives means every live job is an
      // implicit keep with the same kTimeInfinity key, whose (key, id)
      // sort is exactly ascending id — i.e. the live list as-is. Skip the
      // order buffer and the sort altogether.
      busy_.clear();
      for (const std::int32_t slot : live_slots_) try_activate(slot);
    } else {
      // Round stamps replace a per-round O(n) boolean reset: a job is
      // "seen" iff its stamp equals the current round's.
      if (++round_ == 0) {  // wrap: old stamps could collide, wipe them
        seen_round_.assign(seen_round_.size(), 0);
        round_ = 1;
      }
      for (const Ranked& r : order_) seen_round_[r.slot] = round_;
      for (std::size_t i = 0; i < live_sorted_.size(); ++i) {
        const std::int32_t slot = live_slots_[i];
        if (seen_round_[slot] != round_) {
          order_.push_back(Ranked{kTimeInfinity, live_sorted_[i], slot});
        }
      }
      // (priority, id) pairs only tie when they are fully identical
      // (duplicate directives), so a plain sort yields the same sequence a
      // stable sort would — without libstdc++'s temporary buffer. Rank-
      // priority policies (greedy, srpt, ssf-edf, fcfs) emit the order
      // already sorted in practice, so check before sorting.
      const auto before = [](const Ranked& a, const Ranked& b) {
        return a.priority != b.priority ? a.priority < b.priority
                                        : a.id < b.id;
      };
      if (!std::is_sorted(order_.begin(), order_.end(), before)) {
        std::sort(order_.begin(), order_.end(), before);
      }

      busy_.clear();
      for (const Ranked& r : order_) try_activate(r.slot);
    }
  }
  if (profiler_ != nullptr) profiler_->lap(obs::EnginePhase::kActivate);

  // 5. Ready-queue depth after arbitration: live jobs holding no
  //    resource. A job holds a resource iff try_activate granted it one
  //    this round, so the depth falls out of two counters with no extra
  //    pass over the pool.
  const std::uint64_t waiting = live_.size() - granted_;
  if (waiting > stats_.max_queue_depth) stats_.max_queue_depth = waiting;
  if (metrics_ != nullptr) {
    metrics_->gauge_set(ids_->queue_depth, static_cast<double>(waiting));
  }
  if (trace_ != nullptr) sample_counters(waiting);
  if (profiler_ != nullptr) profiler_->lap(obs::EnginePhase::kEmit);
}

/// Emits the event-granularity time series into the trace.
void EngineCore::sample_counters(std::uint64_t waiting) {
  trace_counter(obs::TracePoint::kReadyQueueDepth,
                static_cast<double>(waiting));
  double live_max = stats_.max_stretch;
  for (const std::int32_t slot : live_slots_) {
    const double best = pool_.best_time(slot);
    const double denom = best > 0.0 ? best : 1.0;
    live_max = std::max(live_max, (now_ - pool_.job(slot).release) / denom);
  }
  trace_counter(obs::TracePoint::kLiveMaxStretch, live_max);
  if (platform_->edge_count() > 0) {
    int busy = 0;
    for (std::size_t i = 0; i < busy_.edge_cpu.stamp.size(); ++i) {
      busy += busy_.busy(busy_.edge_cpu, i) ? 1 : 0;
    }
    trace_counter(obs::TracePoint::kEdgeUtilization,
                  static_cast<double>(busy) / platform_->edge_count());
  }
  if (platform_->cloud_count() > 0) {
    int busy = 0;
    for (std::size_t i = 0; i < busy_.cloud_cpu.stamp.size(); ++i) {
      busy += busy_.busy(busy_.cloud_cpu, i) ? 1 : 0;
    }
    trace_counter(obs::TracePoint::kCloudUtilization,
                  static_cast<double>(busy) / platform_->cloud_count());
  }
}

/// `slot` is find_slot(d.job), resolved once by the caller.
void EngineCore::apply_directive(const Directive& d, std::int32_t slot) {
  if (d.target == kTargetKeep) {
    // Keeps skip all validation (a keep for a finished or unknown job is
    // harmless); provenance still wants the deduplicated decision.
    if (provenance_on_) trace_keep_directive(slot, d);
    return;
  }
  if (d.job < 0 ||
      (!streaming_ && d.job >= static_cast<JobId>(pool_.size())) ||
      (streaming_ && d.job >= next_id_)) {
    throw std::runtime_error("policy " + policy_->name() +
                             " issued a directive for unknown job " +
                             std::to_string(d.job));
  }
  if (slot < 0) return;  // streaming: retired or rejected, stale directive
  if (!pool_.live(slot)) return;
  if (d.target != kAllocEdge &&
      (!is_cloud_alloc(d.target) || d.target >= platform_->cloud_count())) {
    throw std::runtime_error("policy " + policy_->name() +
                             " issued invalid target " +
                             std::to_string(d.target) + " for job " +
                             std::to_string(d.job));
  }
  if (d.target == pool_.alloc(slot)) {
    if (provenance_on_) trace_keep_directive(slot, d);
    return;
  }
  if (provenance_on_) trace_directive(slot, pool_.alloc(slot), d.target, d);

  ActivityRecorder* rec = record_schedule_ ? &recorders_[slot] : nullptr;
  if (rec != nullptr) rec->close(now_);
  const int old_alloc = pool_.alloc(slot);
  if (old_alloc != kAllocUnassigned) {
    // Abandon the current run; its history stays on the books because it
    // physically occupied resources.
    ++pool_.reassignments(slot);
    ++stats_.reassignments;
    if (rec != nullptr) {
      if (rec->has_history()) {
        abandoned_runs_.emplace_back(d.job, std::move(rec->current));
      }
      rec->current = RunRecord{};
    }
  }
  // A reassignment is not a preemption: the job lost its resource because
  // its allocation changed, so drop the round's mid-activity flag.
  pool_.was_active(slot) = 0;
  if (trace_ != nullptr) {
    trace_close_span(slot);
    if (old_alloc != kAllocUnassigned) ++run_index_[slot];
  }
  pool_.alloc(slot) = d.target;
  if (rec != nullptr) rec->current.alloc = d.target;
  if (d.target == kAllocEdge) {
    pool_.rem_up(slot) = 0.0;
    pool_.rem_work(slot) = pool_.job(slot).work;
    pool_.rem_down(slot) = 0.0;
  } else {
    pool_.rem_up(slot) = pool_.job(slot).up;
    pool_.rem_work(slot) = pool_.job(slot).work;
    pool_.rem_down(slot) = pool_.job(slot).down;
  }
  if (trace_ != nullptr && old_alloc != kAllocUnassigned) {
    trace_instant(obs::TracePoint::kReassignment, slot, -1,
                  static_cast<double>(old_alloc));
  }
}

/// Consumes a job's was_active flag after it failed arbitration: a job
/// that was mid-activity, kept its allocation, and got nothing was
/// preempted (outprioritized, or its cloud entered an outage / crash
/// window). A no-op for jobs that were idle or already re-granted.
void EngineCore::note_preemption(std::int32_t slot) {
  if (pool_.was_active(slot) == 0) return;
  pool_.was_active(slot) = 0;
  ++stats_.preemptions;
  if (trace_ != nullptr) {
    trace_close_span(slot);
    trace_instant(obs::TracePoint::kPreemption, slot, -1, 0.0);
  }
}

void EngineCore::try_activate(const std::int32_t slot) {
  if (!pool_.live(slot)) return;
  const Activity needed = pool_.next_activity(slot);
  if (needed == Activity::kNone) {
    note_preemption(slot);
    return;
  }
  const int alloc = pool_.alloc(slot);
  const EdgeId o = pool_.job(slot).origin;
  const JobId id = pool_.job(slot).id;
  // A cloud processor inside an availability outage serves nothing —
  // neither computation nor communication involving it. The same holds
  // for an unannounced crash, except that the policy was never told.
  if (is_cloud_alloc(alloc) && (!instance_->cloud_available(alloc, now_) ||
                                cloud_down_[alloc] != 0)) {
    note_preemption(slot);
    return;
  }
  switch (needed) {
    case Activity::kCompute:
      if (alloc == kAllocEdge) {
        if (busy_.busy(busy_.edge_cpu, o)) {
          note_preemption(slot);
          return;
        }
        busy_.claim(busy_.edge_cpu, o, id);
      } else {
        if (busy_.busy(busy_.cloud_cpu, alloc)) {
          note_preemption(slot);
          return;
        }
        busy_.claim(busy_.cloud_cpu, alloc, id);
      }
      break;
    case Activity::kUplink:
      if (busy_.busy(busy_.edge_send, o) ||
          busy_.busy(busy_.cloud_recv, alloc)) {
        note_preemption(slot);
        return;
      }
      busy_.claim(busy_.edge_send, o, id);
      busy_.claim(busy_.cloud_recv, alloc, id);
      break;
    case Activity::kDownlink:
      if (busy_.busy(busy_.cloud_send, alloc) ||
          busy_.busy(busy_.edge_recv, o)) {
        note_preemption(slot);
        return;
      }
      busy_.claim(busy_.cloud_send, alloc, id);
      busy_.claim(busy_.edge_recv, o, id);
      break;
    case Activity::kNone:
      return;
  }
  pool_.active(slot) = needed;
  pool_.was_active(slot) = 0;
  // Lazy progress accounting: anchor the activity at now_ with its
  // consumption rate and enter the active set; the end time is predicted
  // analytically from these fields when the round advances (the prediction
  // is exact — rates only change through a re-grant).
  pool_.rate(slot) = needed == Activity::kCompute
                         ? (alloc == kAllocEdge ? platform_->edge_speed(o)
                                                : platform_->cloud_speed(alloc))
                         : 1.0;
  pool_.last_update(slot) = now_;
  active_ids_.push_back(slot);
  ++granted_;
  if (record_schedule_) recorders_[slot].open(needed, now_);
  if (started_[slot] == 0) {
    started_[slot] = 1;
    if (metrics_ != nullptr) {
      metrics_->observe(ids_->queue_wait, now_ - pool_.job(slot).release);
    }
  }
  if (trace_ != nullptr) {
    // Reopening the same activity on the same allocation continues the
    // current span; anything else starts a fresh one.
    SpanState& span = spans_[slot];
    if (span.activity != needed || span.alloc != alloc) {
      trace_close_span(slot);
      span.activity = needed;
      span.alloc = alloc;
      span.begin = now_;
    }
  }
}

Time EngineCore::activity_end(std::int32_t slot) const {
  // rate(slot) was fixed at grant time: the processor speed for computes,
  // 1.0 for transfers — so one select + one divide covers all three kinds
  // (x / 1.0 is exact in IEEE arithmetic, keeping transfer end times
  // bit-identical to the historical now_ + rem form).
  if (pool_.active(slot) == Activity::kNone) return kTimeInfinity;
  return now_ + clamp_amount(pool_.active_remaining(slot)) / pool_.rate(slot);
}

void EngineCore::advance_to_next_event() {
  // Earliest predicted activity end: one pass over the active set.
  Time next = next_activity_end();
  if (streaming_) {
    if (pending_) next = std::min(next, pending_->release);
  } else if (next_release_ < release_order_.size()) {
    next = std::min(next, pool_.job(release_order_[next_release_]).release);
  }
  while (next_boundary_ < boundaries_.size() &&
         time_le(boundaries_[next_boundary_], now_)) {
    ++next_boundary_;
  }
  if (next_boundary_ < boundaries_.size()) {
    next = std::min(next, boundaries_[next_boundary_]);
  }
  if (next_wake_ < wakes_.size()) {
    next = std::min(next, wakes_[next_wake_].time);
  }
  if (next == kTimeInfinity) {
    std::ostringstream os;
    os << "simulation stalled at t=" << now_ << ": policy "
       << policy_->name() << " left all " << remaining_jobs_
       << " live job(s) without a runnable activity and no event is "
          "pending; live jobs: "
       << describe_live_jobs();
    throw std::runtime_error(os.str());
  }

  if (profiler_ != nullptr) {
    profiler_->note_scan(active_ids_.size());
    profiler_->lap(obs::EnginePhase::kEventScan);
  }

  // Materialize progress for the active set only (every member was
  // re-anchored at now_ this round, so the elapsed span is next - now_).
  // One contiguous pass over the SoA hot fields, vectorizer-friendly.
  pool_.advance_active(active_ids_.data(), active_ids_.size(), next);
  now_ = next;
  if (profiler_ != nullptr) profiler_->lap(obs::EnginePhase::kAdvance);

  // Fire completions. Detection walks the active set in grant order; what
  // fired is then handled in job-id order, the order policies and traces
  // observe and the order completed slots are queued for retirement.
  fired_.clear();
  for (const std::int32_t slot : active_ids_) {
    if (pool_.active(slot) != Activity::kNone &&
        amount_done(pool_.active_remaining(slot))) {
      fired_.push_back(soa::LiveIndex::Entry{pool_.job(slot).id, slot});
    }
  }
  std::sort(fired_.begin(), fired_.end(), id_less);
  bool job_completed = false;
  for (const auto& [id, slot] : fired_) {
    switch (pool_.active(slot)) {
      case Activity::kUplink:
        pool_.rem_up(slot) = 0.0;
        events_.push_back(Event{EventKind::kUplinkDone, id, now_});
        break;
      case Activity::kCompute:
        pool_.rem_work(slot) = 0.0;
        events_.push_back(Event{EventKind::kComputeDone, id, now_});
        break;
      case Activity::kDownlink:
        pool_.rem_down(slot) = 0.0;
        events_.push_back(Event{EventKind::kDownlinkDone, id, now_});
        break;
      case Activity::kNone:
        break;
    }
    if (record_schedule_) recorders_[slot].close(now_);
    pool_.active(slot) = Activity::kNone;
    if (trace_ != nullptr) trace_close_span(slot);
    if (!pool_.all_amounts_done(slot)) continue;
    pool_.done(slot) = 1;
    job_completed = true;
    live_.erase(slot);
    note_live_erase();
    pool_.completion(slot) = now_;
    --remaining_jobs_;
    ++stats_.completed;
    const double best = pool_.best_time(slot);
    const double denom = best > 0.0 ? best : 1.0;
    const double stretch = (now_ - pool_.job(slot).release) / denom;
    stats_.max_stretch = std::max(stats_.max_stretch, stretch);
    if (metrics_ != nullptr) {
      metrics_->observe(ids_->stretch, stretch);
    }
    if (trace_ != nullptr) {
      trace_instant(obs::TracePoint::kCompletion, slot, -1, stretch);
    }
    // Retirement is deferred to the next decision round: the policy
    // must still see this completion event with the state attached.
    if (streaming_) retire_queue_.push_back(slot);
  }
  if (profiler_ != nullptr) profiler_->lap(obs::EnginePhase::kCompletions);
  fire_faults();
  if (profiler_ != nullptr) profiler_->lap(obs::EnginePhase::kFaults);
  fire_releases();

  stats_.events += events_.size();
  if (config_.max_events != 0 && stats_.events > config_.max_events) {
    std::ostringstream os;
    os << "event cap (" << config_.max_events << ") exceeded at t=" << now_
       << " by policy " << policy_->name() << " with " << remaining_jobs_
       << " live job(s) after " << stats_.reassignments
       << " reassignment(s) and " << stats_.fault_aborts
       << " fault abort(s); the policy is likely thrashing "
          "re-executions; live jobs: "
       << describe_live_jobs();
    throw std::runtime_error(os.str());
  }
  // Progress watchdog: a thrashing policy fires activity events forever
  // without completing a job, so count events since the last completion —
  // meaningful even when the total event count is unbounded (streaming).
  if (job_completed) {
    events_since_completion_ = 0;
  } else {
    events_since_completion_ += events_.size();
    const std::uint64_t cap =
        config_.stall_events != 0
            ? config_.stall_events
            : std::max<std::uint64_t>(
                  kStallFloor,
                  512 * static_cast<std::uint64_t>(live_.size()));
    if (events_since_completion_ > cap) {
      std::ostringstream os;
      os << "progress watchdog: " << events_since_completion_
         << " event(s) since the last job completion (cap " << cap
         << ") at t=" << now_ << " under policy " << policy_->name()
         << " with " << live_.size() << " live job(s) after "
         << stats_.reassignments << " reassignment(s) and "
         << stats_.fault_aborts
         << " fault abort(s); the policy is likely thrashing "
            "re-executions; live jobs: "
         << describe_live_jobs();
      throw std::runtime_error(os.str());
    }
  }
  // kAdmission closes the round: release firing, admission control and the
  // watchdog accounting above. Together with the laps before it the phases
  // tile the whole step, which is what lets --profile-out reconcile the
  // phase sum against an independent wall measurement.
  if (profiler_ != nullptr) profiler_->lap(obs::EnginePhase::kAdmission);
  if (heartbeat_ != nullptr) {
    heartbeat_->tick(now_, stats_.events, live_.size(),
                     stats_.rejections + stats_.sheds);
  }
}

/// Compact dump of the live jobs — id, allocation, current activity —
/// for the stall / event-cap diagnostics. Capped at 8 entries.
std::string EngineCore::describe_live_jobs() const {
  std::vector<soa::LiveIndex::Entry> live(live_.begin(), live_.end());
  std::sort(live.begin(), live.end(), id_less);
  std::ostringstream os;
  int shown = 0;
  for (const soa::LiveIndex::Entry& e : live) {
    const std::int32_t slot = e.slot;
    if (shown == 8) {
      os << ", ...";
      break;
    }
    if (shown > 0) os << ", ";
    os << "J" << pool_.job(slot).id << "(";
    const int alloc = pool_.alloc(slot);
    if (alloc == kAllocUnassigned) {
      os << "unassigned";
    } else if (alloc == kAllocEdge) {
      os << "edge" << pool_.job(slot).origin;
    } else {
      os << "cloud" << alloc;
      if (cloud_down_[alloc] != 0) os << ":down";
    }
    os << "/" << to_string(pool_.active(slot)) << ")";
    ++shown;
  }
  if (shown == 0) os << "none";
  return os.str();
}

/// Processes every fault-timeline wake-up that is due at `now_`: flips
/// the down/up state, fires the monitoring events, aborts crash victims
/// (progress fully discarded — the machine's memory is gone) and corrupts
/// in-flight messages at loss instants.
void EngineCore::fire_faults() {
  if (next_wake_ >= wakes_.size() ||
      !time_le(wakes_[next_wake_].time, now_)) {
    return;  // nothing due; skip the phase timer's clock reads
  }
  const obs::ScopeTimer timer(metrics_,
                              metrics_ != nullptr ? ids_->phase_faults : 0);
  while (next_wake_ < wakes_.size() &&
         time_le(wakes_[next_wake_].time, now_)) {
    const FaultWake& wake = wakes_[next_wake_];
    const FaultSpec& spec = config_.faults.faults[wake.spec];
    if (wake.recovery) {
      cloud_down_[spec.cloud] = 0;
      push_fault_event(Event{EventKind::kRecovery, -1, now_, spec.cloud});
      if (trace_ != nullptr) {
        trace_instant(obs::TracePoint::kRecovery, -1, spec.cloud, 0.0);
      }
    } else if (spec.kind == FaultKind::kCrash) {
      cloud_down_[spec.cloud] = 1;
      push_fault_event(Event{EventKind::kFault, -1, now_, spec.cloud});
      if (trace_ != nullptr) {
        trace_instant(obs::TracePoint::kFault, -1, spec.cloud, 0.0);
      }
      abort_jobs_on_cloud(spec.cloud);
    } else {
      corrupt_in_flight_message(spec);
    }
    ++next_wake_;
  }
}

/// Crash semantics: every job allocated to the crashed cloud loses ALL
/// progress (uplink included — the data sat on the dead machine, not in
/// the network) and returns to the unassigned state; the partial run
/// stays on the books as an abandoned run because it physically occupied
/// resources.
void EngineCore::abort_jobs_on_cloud(CloudId crashed) {
  // Victims come from the live set (no instance-wide sweep); sort so the
  // abort events keep firing in job-id order like the old full scan.
  victims_.clear();
  for (const soa::LiveIndex::Entry& e : live_) {
    if (pool_.alloc(e.slot) == crashed) victims_.push_back(e.id);
  }
  std::sort(victims_.begin(), victims_.end());
  for (const JobId id : victims_) {
    const std::int32_t slot = find_slot(id);
    if (trace_ != nullptr) {
      trace_close_span(slot);
      trace_instant(obs::TracePoint::kFault, slot, crashed, 0.0);
      ++run_index_[slot];
    }
    if (record_schedule_) {
      ActivityRecorder& rec = recorders_[slot];
      rec.close(now_);
      if (rec.has_history()) {
        abandoned_runs_.emplace_back(id, std::move(rec.current));
      }
      rec.current = RunRecord{};
    }
    pool_.alloc(slot) = kAllocUnassigned;
    pool_.rem_up(slot) = 0.0;
    pool_.rem_work(slot) = 0.0;
    pool_.rem_down(slot) = 0.0;
    pool_.active(slot) = Activity::kNone;
    // The abort changed the allocation without a directive: the next
    // keep/assign decision is new information and must be re-emitted.
    if (provenance_on_) last_dir_target_[slot] = kDirectiveNone;
    ++stats_.fault_aborts;
    push_fault_event(Event{EventKind::kFault, id, now_, crashed});
  }
}

/// Loss semantics: the message in flight on the hit direction of the
/// cloud's link at this instant is corrupted and must be retransmitted
/// from zero. A downlink loss keeps the execution progress (the result
/// still sits on the cloud); an uplink loss re-pays the whole upload.
/// Nothing in flight => the loss is unobservable and hits nobody.
void EngineCore::corrupt_in_flight_message(const FaultSpec& spec) {
  const Activity hit = spec.kind == FaultKind::kUplinkLoss
                           ? Activity::kUplink
                           : Activity::kDownlink;
  // Only an active job can be mid-transmission, and one-port admits at
  // most one message per direction of a cloud's link: at most one match,
  // so the active set's order does not matter.
  for (const std::int32_t slot : active_ids_) {
    if (pool_.alloc(slot) != spec.cloud || pool_.active(slot) != hit) {
      continue;
    }
    // The corrupted transmission physically used the link: its interval
    // stays recorded in the current run (quantity checks are >=).
    if (record_schedule_) recorders_[slot].close(now_);
    pool_.active(slot) = Activity::kNone;
    if (hit == Activity::kUplink) {
      pool_.rem_up(slot) = pool_.job(slot).up;
      ++stats_.uplink_retransmits;
    } else {
      pool_.rem_down(slot) = pool_.job(slot).down;
      ++stats_.downlink_retransmits;
    }
    ++stats_.message_losses;
    if (trace_ != nullptr) {
      trace_close_span(slot);
      trace_instant(hit == Activity::kUplink
                        ? obs::TracePoint::kUplinkLoss
                        : obs::TracePoint::kDownlinkLoss,
                    slot, spec.cloud, 0.0);
    }
    push_fault_event(Event{EventKind::kFault, pool_.job(slot).id, now_,
                           spec.cloud});
    break;  // one-port: at most one message per direction per cloud
  }
}

void EngineCore::push_fault_event(const Event& event) {
  events_.push_back(event);
  fault_log_.push_back(event);
}

bool EngineCore::step_rounds(std::uint64_t rounds) {
  if (rounds == 0) {
    while (!done()) step();
    return true;
  }
  for (std::uint64_t i = 0; i < rounds && !done(); ++i) step();
  return done();
}

void EngineCore::finish_into(SimResult& out) {
  if (profiler_ != nullptr) profiler_->mark();
  // Streaming: the last completions of the run never saw another decision
  // round, so their slots still sit in the retire queue — harvest them.
  if (streaming_) flush_retired();
  // Counters mirroring SimStats are added in bulk here so the registry and
  // the returned stats are consistent by construction.
  if (metrics_ != nullptr) {
    metrics_->add(ids_->events, stats_.events);
    metrics_->add(ids_->decisions, stats_.decisions);
    metrics_->add(ids_->reassignments, stats_.reassignments);
    metrics_->add(ids_->preemptions, stats_.preemptions);
    metrics_->add(ids_->fault_aborts, stats_.fault_aborts);
    metrics_->add(ids_->uplink_retransmits, stats_.uplink_retransmits);
    metrics_->add(ids_->downlink_retransmits, stats_.downlink_retransmits);
    metrics_->add(ids_->message_losses, stats_.message_losses);
    metrics_->add(ids_->rejections, stats_.rejections);
    metrics_->add(ids_->sheds, stats_.sheds);
    metrics_->add(ids_->elided_rounds, elided_rounds_);
    metrics_->gauge_set(ids_->peak_live,
                        static_cast<double>(stats_.peak_live));
    metrics_->gauge_set(ids_->peak_tracked,
                        static_cast<double>(stats_.peak_tracked));
  }
  if (trace_ != nullptr) trace_->end_trace(now_);
  out.stats = stats_;
  // Swap rather than move: the caller's old buffers land in the core's
  // logs, where the next prepare() clears them for reuse — so a resident
  // (core, result) pair recycles capacity in both directions.
  out.fault_log.swap(fault_log_);
  out.admission_log.swap(admission_log_);
  const std::size_t total_jobs =
      streaming_ ? static_cast<std::size_t>(next_id_) : pool_.size();
  out.completions.clear();
  if (config_.record_completions) {
    // -1 marks rejected / shed jobs (they never completed).
    out.completions.assign(total_jobs, -1.0);
    if (streaming_) {
      for (const auto& [id, completion] : completion_log_) {
        out.completions[id] = completion;
      }
    } else {
      for (std::int32_t s = 0; s < static_cast<std::int32_t>(pool_.size());
           ++s) {
        if (pool_.done(s) != 0) {
          out.completions[pool_.job(s).id] = pool_.completion(s);
        }
      }
    }
  }
  if (config_.record_schedule) {
    out.schedule = Schedule(static_cast<int>(total_jobs));
    for (auto& [id, run] : abandoned_runs_) {
      out.schedule.job(id).abandoned.push_back(std::move(run));
    }
    if (streaming_) {
      // Retired jobs harvested their final run on the way out; rejected
      // ids keep an empty record, like never-started jobs do.
      for (auto& [id, run] : final_runs_) {
        out.schedule.job(id).final_run = std::move(run);
      }
    } else {
      for (std::int32_t s = 0; s < static_cast<std::int32_t>(pool_.size());
           ++s) {
        ActivityRecorder& rec = recorders_[s];
        rec.close(now_);
        out.schedule.job(pool_.job(s).id).final_run = std::move(rec.current);
      }
    }
  } else {
    out.schedule = Schedule();
  }
  if (profiler_ != nullptr) {
    profiler_->lap(obs::EnginePhase::kFinish);
    profiler_->end_run(stats_.events, stats_.decisions, elided_rounds_,
                       stats_.peak_live, stats_.peak_tracked);
  }
}

SimResult EngineCore::run() {
  while (!done()) step();
  SimResult out;
  finish_into(out);
  return out;
}

}  // namespace detail

SimResult simulate(const Instance& instance, Policy& policy,
                   const EngineConfig& config) {
  policy.reset(instance);
  detail::EngineCore core;
  core.prepare(instance, nullptr, policy, config);
  return core.run();
}

SimResult simulate_stream(const Instance& base, ArrivalStream& arrivals,
                          Policy& policy, const EngineConfig& config) {
  policy.reset(base);
  detail::EngineCore core;
  core.prepare(base, &arrivals, policy, config);
  return core.run();
}

}  // namespace ecs
