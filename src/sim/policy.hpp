// policy.hpp - The event-triggered scheduling-policy interface.
//
// All the paper's heuristics (section V) are event-based: they reconsider
// their decisions only when a job is released or when an uplink, execution
// or downlink completes. At each such point the engine asks the policy for
// *directives*: for each live job, a target location and a priority.
//
//  * target = kAllocEdge        -> run locally on the origin edge processor;
//  * target = k >= 0            -> delegate to cloud processor k;
//  * target = kTargetKeep       -> keep the current allocation and progress.
//
// Changing a job's location discards its progress (the paper's re-execution
// rule). Priorities (lower value = more urgent) drive the engine's resource
// arbitration: at each event the engine walks jobs in priority order and
// activates each job's next needed activity if its processor/ports are
// free — this uniformly realizes preemption, one-port serialization and the
// uplink -> compute -> downlink pipeline for every policy.
//
// Jobs for which the policy returns no directive implicitly keep their
// allocation with the lowest priority (the engine stays work-conserving).
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "obs/reason.hpp"
#include "sim/soa.hpp"
#include "sim/state.hpp"

namespace ecs {

/// Directive target sentinel: keep the job where it is, progress intact.
inline constexpr int kTargetKeep = -3;

struct Directive {
  JobId job = -1;
  int target = kTargetKeep;  ///< kAllocEdge, cloud index, or kTargetKeep
  double priority = 0.0;     ///< lower = scheduled first
  /// Why the policy chose this target (obs/reason.hpp). Purely diagnostic:
  /// the engine never branches on it — it only copies the code into the
  /// decision-provenance trace when provenance is enabled — so annotated
  /// and unannotated policies produce bit-identical schedules.
  ReasonCode reason = ReasonCode::kUnspecified;
};

/// Read-only view of the simulation passed to policies.
///
/// The view reads the engine's SoA StatePool directly. fields(id) gathers
/// the policy-facing fields straight from the dense component arrays — the
/// hot path — while state(id)/states() serve `const JobState&` from the
/// pool's epoch-stamped AoS read cache: the first read of a slot in a
/// decision round publishes it, later reads in the same round hit the
/// cache. Hand-built views (tests, micro-benchmarks) fill a StatePool of
/// their own.
///
/// The engine recycles state slots, so a job id is not an index into
/// states(). Loops over the live set read live_slots() and gather with
/// pool().fields(slot), with no lookup per job; slot(id) hashes, and is
/// meant for event jobs and directive targets. A slot from live_slots()
/// stays valid until the next release event: slots are reused only at
/// admission. Per-job policy workspaces are keyed by slot, never by id, to
/// stay O(live). Hand-made views have no id map: slot == id.
class SimView {
 public:
  /// `live_sorted`, when provided (the engine always does), is the list of
  /// released, unfinished job ids sorted ascending — it lets live_jobs()
  /// answer in O(live) instead of scanning every job state — and
  /// `live_slots` the state slot of each of its entries. `id_map`
  /// translates a job id to its state slot; ids absent from the map are
  /// retired, rejected or not yet released and have no state.
  SimView(const Instance& instance, const soa::StatePool& pool, Time now,
          const std::vector<JobId>* live_sorted = nullptr,
          const std::vector<std::int32_t>* live_slots = nullptr,
          const soa::IdMap* id_map = nullptr)
      : instance_(&instance),
        pool_(&pool),
        live_sorted_(live_sorted),
        live_slots_(live_slots),
        id_map_(id_map),
        now_(now) {}

  [[nodiscard]] const Instance& instance() const noexcept {
    return *instance_;
  }
  [[nodiscard]] const Platform& platform() const noexcept {
    return instance_->platform;
  }
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// The state pool the view reads.
  [[nodiscard]] const soa::StatePool& pool() const noexcept { return *pool_; }

  /// Full AoS state array, one entry per state slot. Publishes every stale
  /// cache entry first — an O(n) escape hatch kept for tools and legacy
  /// callers; policies should use fields()/state()/state_count().
  [[nodiscard]] const std::vector<JobState>& states() const {
    return pool_->materialize_all();
  }

  /// Number of state slots, without materializing anything.
  [[nodiscard]] std::size_t state_count() const noexcept {
    return pool_->size();
  }

  /// Index of `id`'s state in states(). Identity without an id map;
  /// negative when the job is retired, rejected or not yet released.
  /// Always >= 0 for live ids and for the jobs of the current event batch.
  [[nodiscard]] std::int32_t slot(JobId id) const noexcept {
    if (id_map_ == nullptr) return static_cast<std::int32_t>(id);
    return id_map_->find(id);
  }

  [[nodiscard]] const JobState& state(JobId id) const {
    const std::int32_t s = slot(id);
    if (s < 0 || static_cast<std::size_t>(s) >= pool_->size()) {
      throw std::out_of_range("SimView::state: job has no state slot");
    }
    return pool_->materialize(s);
  }

  /// The policy-facing fields of `id`, gathered by value: touches only the
  /// needed SoA arrays and never writes a cache entry. `id` must be live or
  /// belong to the current event batch (the slot() >= 0 contract above).
  /// Costs one slot(id) lookup; loops over the live set should gather with
  /// pool().fields(slot) from live_slots() instead.
  [[nodiscard]] JobFields fields(JobId id) const {
    const std::int32_t s = slot(id);
    assert(s >= 0 && static_cast<std::size_t>(s) < pool_->size());
    return pool_->fields(s);
  }

  /// Ids of released, unfinished jobs, ascending. Non-owning: the span
  /// aliases the engine's sorted live index (no copy — this sits on every
  /// policy's hot path) and is valid only while the view is. When the view
  /// was built without a live index (hand-made views in tests), the list is
  /// derived once from the pool and cached in the view.
  [[nodiscard]] std::span<const JobId> live_jobs() const {
    if (live_sorted_ != nullptr) return *live_sorted_;
    if (!fallback_built_) {
      fallback_live_.clear();
      const auto n = static_cast<std::int32_t>(pool_->size());
      for (std::int32_t s = 0; s < n; ++s) {
        if (pool_->live(s)) fallback_live_.push_back(pool_->job(s).id);
      }
      fallback_built_ = true;
    }
    return fallback_live_;
  }

  /// The state slot of each live_jobs() entry, in the same order: the
  /// policies' per-live-job read path (pool().fields(live_slots()[i])).
  /// Aliases the engine's list like live_jobs(); a hand-made view has no
  /// id map, so its slots are its live ids.
  [[nodiscard]] std::span<const std::int32_t> live_slots() const {
    if (live_slots_ != nullptr) return *live_slots_;
    assert(id_map_ == nullptr);
    return live_jobs();
  }

 private:
  const Instance* instance_;
  const soa::StatePool* pool_;
  const std::vector<JobId>* live_sorted_ = nullptr;
  const std::vector<std::int32_t>* live_slots_ = nullptr;
  const soa::IdMap* id_map_ = nullptr;
  mutable std::vector<JobId> fallback_live_;  ///< lazy; null live_sorted_ only
  mutable bool fallback_built_ = false;
  Time now_;
};

/// Per-policy opt-in contract for no-op round elision (DESIGN.md §8).
///
/// A policy that can prove its output is a pure function of a subset of
/// event kinds declares them as `triggers`; on a decision round whose
/// event batch contains no trigger kind, the engine skips decide():
///
///  * kEmptyUnlessTriggered — on such a round decide() would append no
///    directives at all (the policy only ever reacts to its triggers), so
///    the engine substitutes an empty directive list.
///  * kReuseUnlessTriggered — on such a round decide() would re-emit
///    exactly the previous round's directives, provided the live set has
///    not changed since the round that produced them; the engine re-applies
///    the kept buffer verbatim (and falls back to decide() whenever the
///    membership did change).
///
/// The engine always treats kFault and kRecovery as triggers regardless of
/// the declared mask — fault-digesting wrappers and safety both depend on
/// seeing them. Elision must be behaviorally invisible: the equivalence
/// suite pins byte-identical schedules against the same policy with its
/// contract hidden.
struct ElisionContract {
  enum class Mode : std::uint8_t {
    kNone,                  ///< never elide; decide() runs every round
    kEmptyUnlessTriggered,  ///< non-trigger rounds emit no directives
    kReuseUnlessTriggered,  ///< non-trigger rounds re-apply the last output
  };

  Mode mode = Mode::kNone;
  std::uint32_t triggers = 0;  ///< bitmask over EventKind (see bit())

  [[nodiscard]] static constexpr std::uint32_t bit(EventKind kind) noexcept {
    return 1U << static_cast<int>(kind);
  }
};

/// Base class for scheduling policies. Policies are stateful across one
/// simulation (reset() is called at the start) but must not retain state
/// across simulations.
///
/// decide() appends into a caller-owned buffer that the engine clears and
/// reuses round after round; together with the per-policy workspaces
/// (reused order/bitmap buffers and a resettable ResourceClock, see
/// DESIGN.md §6) this makes the steady-state hot path allocation-free.
class Policy {
 public:
  virtual ~Policy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Called once before the simulation starts.
  virtual void reset(const Instance& instance) { (void)instance; }

  /// The policy's no-op round elision contract (see ElisionContract). The
  /// default opts out: decide() runs every round. Policies whose output
  /// provably depends only on specific event kinds may override; the claim
  /// is pinned by the equivalence suite.
  [[nodiscard]] virtual ElisionContract elision() const { return {}; }

  /// Called at every event batch. `events` holds everything that fired at
  /// the current time (several completions and releases can coincide).
  /// Appends the directives to `out`; the caller passes it in empty (the
  /// engine clears and reuses one buffer across rounds) and `out` must not
  /// alias any state the policy reads.
  virtual void decide(const SimView& view, const std::vector<Event>& events,
                      std::vector<Directive>& out) = 0;

  /// Convenience for tests and tools: decide() into a fresh vector.
  [[nodiscard]] std::vector<Directive> decide_copy(
      const SimView& view, const std::vector<Event>& events) {
    std::vector<Directive> out;
    decide(view, events, out);
    return out;
  }
};

}  // namespace ecs
