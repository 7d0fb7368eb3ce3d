// soa.hpp - Data-oriented state pools for the simulation engine.
//
// The engine's per-job dynamic state lives here as structure-of-arrays
// component pools (one parallel array per field) instead of the historical
// vector<JobState> AoS layout. Three components:
//
//  * StatePool   - the per-slot job state: the hot progress fields
//                  (rem_up / rem_work / rem_down / rate / last_update) and
//                  the warm allocation / lifecycle fields, each in its own
//                  dense array indexed by state slot. Policies read it
//                  through SimView::fields(), which gathers straight from
//                  the arrays. The legacy `const JobState&` accessors
//                  (SimView::state() / states()) are served by an
//                  epoch-stamped AoS read cache (materialize()), sized and
//                  filled only when something asks for it.
//  * LiveIndex   - sparse-set index of the live (released, unfinished)
//                  jobs: a dense array of (id, slot) pairs with O(1)
//                  swap-erase plus a slot -> dense-position table. Erasure
//                  needs no id -> slot lookup because the dense entries
//                  carry both.
//  * IdMap       - open-addressing id -> slot hash map for the streaming
//                  engine. Replaces the dense id window, whose storage grew
//                  with the *span* of in-flight ids (unbounded when one old
//                  job stays live while later ids churn); the map's
//                  capacity tracks the *count* of tracked ids, so streaming
//                  memory is O(peak_live) under any completion order.
//
// All three are deterministic: iteration order of LiveIndex depends only on
// the insert/erase sequence, and IdMap is only ever probed point-wise.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstddef>
#include <vector>

#include "core/job.hpp"
#include "core/time.hpp"
#include "sim/state.hpp"
#include "util/rng.hpp"

namespace ecs::soa {

/// SoA component pool of per-job engine state, one slot per tracked job.
/// Slot contents mirror JobState field for field; the composite helpers
/// (next_activity, advance_progress, ...) use the exact expressions of the
/// JobState originals so the SoA engine is bit-identical to the AoS one.
class StatePool {
 public:
  /// Resizes to `n` slots, every one reset to the default state. Keeps the
  /// arrays' capacity, so a reused pool allocates nothing on re-prepare.
  /// The AoS read cache is left unsized (it is filled on first read) and
  /// invalidated.
  void reset(std::size_t n) {
    job_.assign(n, Job{});
    best_time_.assign(n, 0.0);
    alloc_.assign(n, kAllocUnassigned);
    rem_up_.assign(n, 0.0);
    rem_work_.assign(n, 0.0);
    rem_down_.assign(n, 0.0);
    active_.assign(n, Activity::kNone);
    rate_.assign(n, 0.0);
    last_update_.assign(n, 0.0);
    was_active_.assign(n, 0);
    released_.assign(n, 0);
    done_.assign(n, 0);
    completion_.assign(n, -1.0);
    reassignments_.assign(n, 0);
    invalidate_view();
  }

  /// Appends one default slot (streaming growth); returns its index.
  std::int32_t grow() {
    const std::int32_t slot = static_cast<std::int32_t>(job_.size());
    job_.emplace_back();
    best_time_.push_back(0.0);
    alloc_.push_back(kAllocUnassigned);
    rem_up_.push_back(0.0);
    rem_work_.push_back(0.0);
    rem_down_.push_back(0.0);
    active_.push_back(Activity::kNone);
    rate_.push_back(0.0);
    last_update_.push_back(0.0);
    was_active_.push_back(0);
    released_.push_back(0);
    done_.push_back(0);
    completion_.push_back(-1.0);
    reassignments_.push_back(0);
    return slot;
  }

  /// Resets one slot to the default state (slot recycling).
  void clear_slot(std::int32_t s) {
    job_[s] = Job{};
    best_time_[s] = 0.0;
    alloc_[s] = kAllocUnassigned;
    rem_up_[s] = 0.0;
    rem_work_[s] = 0.0;
    rem_down_[s] = 0.0;
    active_[s] = Activity::kNone;
    rate_[s] = 0.0;
    last_update_[s] = 0.0;
    was_active_[s] = 0;
    released_[s] = 0;
    done_[s] = 0;
    completion_[s] = -1.0;
    reassignments_[s] = 0;
  }

  [[nodiscard]] std::size_t size() const noexcept { return job_.size(); }

  // Component accessors (slot-indexed).
  [[nodiscard]] Job& job(std::int32_t s) noexcept { return job_[s]; }
  [[nodiscard]] const Job& job(std::int32_t s) const noexcept {
    return job_[s];
  }
  [[nodiscard]] double& best_time(std::int32_t s) noexcept {
    return best_time_[s];
  }
  [[nodiscard]] double best_time(std::int32_t s) const noexcept {
    return best_time_[s];
  }
  [[nodiscard]] int& alloc(std::int32_t s) noexcept { return alloc_[s]; }
  [[nodiscard]] int alloc(std::int32_t s) const noexcept { return alloc_[s]; }
  [[nodiscard]] double& rem_up(std::int32_t s) noexcept { return rem_up_[s]; }
  [[nodiscard]] double rem_up(std::int32_t s) const noexcept {
    return rem_up_[s];
  }
  [[nodiscard]] double& rem_work(std::int32_t s) noexcept {
    return rem_work_[s];
  }
  [[nodiscard]] double rem_work(std::int32_t s) const noexcept {
    return rem_work_[s];
  }
  [[nodiscard]] double& rem_down(std::int32_t s) noexcept {
    return rem_down_[s];
  }
  [[nodiscard]] double rem_down(std::int32_t s) const noexcept {
    return rem_down_[s];
  }
  [[nodiscard]] Activity& active(std::int32_t s) noexcept {
    return active_[s];
  }
  [[nodiscard]] Activity active(std::int32_t s) const noexcept {
    return active_[s];
  }
  [[nodiscard]] double& rate(std::int32_t s) noexcept { return rate_[s]; }
  [[nodiscard]] double rate(std::int32_t s) const noexcept {
    return rate_[s];
  }
  [[nodiscard]] Time& last_update(std::int32_t s) noexcept {
    return last_update_[s];
  }
  [[nodiscard]] Time last_update(std::int32_t s) const noexcept {
    return last_update_[s];
  }
  [[nodiscard]] std::uint8_t& was_active(std::int32_t s) noexcept {
    return was_active_[s];
  }
  [[nodiscard]] std::uint8_t& released(std::int32_t s) noexcept {
    return released_[s];
  }
  [[nodiscard]] std::uint8_t& done(std::int32_t s) noexcept {
    return done_[s];
  }
  [[nodiscard]] Time& completion(std::int32_t s) noexcept {
    return completion_[s];
  }
  [[nodiscard]] int& reassignments(std::int32_t s) noexcept {
    return reassignments_[s];
  }

  [[nodiscard]] bool live(std::int32_t s) const noexcept {
    return released_[s] != 0 && done_[s] == 0;
  }

  /// The next activity slot `s` needs on its current allocation; identical
  /// logic to JobState::next_activity.
  [[nodiscard]] Activity next_activity(std::int32_t s) const noexcept {
    if (alloc_[s] == kAllocUnassigned || done_[s] != 0) {
      return Activity::kNone;
    }
    if (alloc_[s] == kAllocEdge) {
      return amount_done(rem_work_[s]) ? Activity::kNone : Activity::kCompute;
    }
    if (!amount_done(rem_up_[s])) return Activity::kUplink;
    if (!amount_done(rem_work_[s])) return Activity::kCompute;
    if (!amount_done(rem_down_[s])) return Activity::kDownlink;
    return Activity::kNone;
  }

  /// Remaining amount of the activity slot `s` is running; 0 when idle.
  [[nodiscard]] double active_remaining(std::int32_t s) const noexcept {
    switch (active_[s]) {
      case Activity::kUplink:
        return rem_up_[s];
      case Activity::kCompute:
        return rem_work_[s];
      case Activity::kDownlink:
        return rem_down_[s];
      case Activity::kNone:
        break;
    }
    return 0.0;
  }

  [[nodiscard]] bool all_amounts_done(std::int32_t s) const noexcept {
    if (alloc_[s] == kAllocEdge) return amount_done(rem_work_[s]);
    return amount_done(rem_up_[s]) && amount_done(rem_work_[s]) &&
           amount_done(rem_down_[s]);
  }

  /// Materializes the active activity's progress up to `to`; identical
  /// arithmetic to JobState::advance_progress (same ops, same order).
  void advance_progress(std::int32_t s, Time to) noexcept {
    const double dt = std::max(0.0, to - last_update_[s]);
    switch (active_[s]) {
      case Activity::kUplink:
        rem_up_[s] = clamp_amount(rem_up_[s] - dt * rate_[s]);
        break;
      case Activity::kCompute:
        rem_work_[s] = clamp_amount(rem_work_[s] - dt * rate_[s]);
        break;
      case Activity::kDownlink:
        rem_down_[s] = clamp_amount(rem_down_[s] - dt * rate_[s]);
        break;
      case Activity::kNone:
        return;  // idle: nothing progresses, the anchor stays put
    }
    last_update_[s] = to;
  }

  /// Batch form of advance_progress over a set of slots: one contiguous
  /// pass with the component-array bases hoisted out of the loop, so the
  /// compiler keeps them in registers and the body stays branch-lean
  /// (one switch on the activity kind, no function-call or bounds-check
  /// traffic). The per-slot arithmetic is the same expressions in the same
  /// order as advance_progress, so the results are bit-identical.
  void advance_active(const std::int32_t* slots, std::size_t count,
                      Time to) noexcept {
    const Activity* ak = active_.data();
    const double* rt = rate_.data();
    Time* lu = last_update_.data();
    double* ru = rem_up_.data();
    double* rw = rem_work_.data();
    double* rd = rem_down_.data();
    for (std::size_t i = 0; i < count; ++i) {
      const std::int32_t s = slots[i];
      const double dt = std::max(0.0, to - lu[s]);
      switch (ak[s]) {
        case Activity::kUplink:
          ru[s] = clamp_amount(ru[s] - dt * rt[s]);
          break;
        case Activity::kCompute:
          rw[s] = clamp_amount(rw[s] - dt * rt[s]);
          break;
        case Activity::kDownlink:
          rd[s] = clamp_amount(rd[s] - dt * rt[s]);
          break;
        case Activity::kNone:
          continue;  // idle: nothing progresses, the anchor stays put
      }
      lu[s] = to;
    }
  }

  /// Gathers the policy-facing fields of slot `s` straight from the
  /// component arrays — the policy read path; no AoS entry is written.
  [[nodiscard]] JobFields fields(std::int32_t s) const noexcept {
    return JobFields{&job_[s],   best_time_[s], alloc_[s],
                     rem_up_[s], rem_work_[s],  rem_down_[s]};
  }

  // --- AoS read cache behind SimView::state() / states() ---
  //
  // Entry `s` mirrors slot `s` as of the epoch stamped on it. Component
  // writes do not touch the cache; invalidate_view() makes every entry
  // stale in O(1), and a read republishes a stale entry on demand. The
  // engine invalidates once per decision round that runs decide(), so a
  // policy sees the state of its own round and pays at most one publish
  // per slot it reads. Nothing is allocated until the first read.

  /// Marks every cache entry stale.
  void invalidate_view() noexcept { ++epoch_; }

  /// The cached AoS entry of slot `s`, republished if stale. Const because
  /// the authoritative component arrays are untouched — the cache is
  /// mutable. Backs SimView::state().
  [[nodiscard]] const JobState& materialize(std::int32_t s) const;

  /// Every slot's cached entry, republishing the stale ones; the result
  /// has exactly size() entries. O(1) when every entry is current, O(n)
  /// otherwise. Backs SimView::states().
  [[nodiscard]] const std::vector<JobState>& materialize_all() const;

  /// Number of cache entries allocated so far (0 until the first read).
  [[nodiscard]] std::size_t cached_slots() const noexcept {
    return view_.size();
  }

 private:
  std::vector<Job> job_;
  std::vector<double> best_time_;
  std::vector<int> alloc_;
  std::vector<double> rem_up_;
  std::vector<double> rem_work_;
  std::vector<double> rem_down_;
  std::vector<Activity> active_;
  std::vector<double> rate_;
  std::vector<Time> last_update_;
  std::vector<std::uint8_t> was_active_;
  std::vector<std::uint8_t> released_;
  std::vector<std::uint8_t> done_;
  std::vector<Time> completion_;
  std::vector<int> reassignments_;

  /// Sizes the cache to size() entries; new entries start stale.
  void size_view() const;
  /// Copies slot `s`'s components into its cache entry and stamps it.
  void publish(std::int32_t s) const;

  // The AoS read cache. Mutable: it is refilled from const readers.
  mutable std::vector<JobState> view_;
  mutable std::vector<std::uint64_t> view_epoch_;  ///< stamp per entry
  mutable std::uint64_t all_epoch_ = 0;  ///< epoch of the last full publish
  std::uint64_t epoch_ = 1;  ///< current epoch; stamps below it are stale
};

/// Sparse-set index of the live jobs. The dense array carries (id, slot)
/// pairs so iteration hands both without a map lookup; `pos_` maps a state
/// slot back to its dense position for O(1) swap-erase.
class LiveIndex {
 public:
  struct Entry {
    JobId id;
    std::int32_t slot;
  };

  /// Clears the index and sizes the slot -> position table for `slots`.
  void reset(std::size_t slots) {
    dense_.clear();
    pos_.assign(slots, -1);
  }

  /// Tracks one more state slot (streaming growth).
  void grow() { pos_.push_back(-1); }

  void insert(JobId id, std::int32_t slot) {
    assert(pos_[slot] < 0);
    pos_[slot] = static_cast<std::int32_t>(dense_.size());
    dense_.push_back(Entry{id, slot});
  }

  void erase(std::int32_t slot) {
    const std::int32_t p = pos_[slot];
    assert(p >= 0);
    const Entry moved = dense_.back();
    dense_[p] = moved;
    pos_[moved.slot] = p;
    dense_.pop_back();
    pos_[slot] = -1;
  }

  [[nodiscard]] bool contains(std::int32_t slot) const noexcept {
    return pos_[slot] >= 0;
  }
  [[nodiscard]] std::size_t size() const noexcept { return dense_.size(); }
  [[nodiscard]] bool empty() const noexcept { return dense_.empty(); }
  [[nodiscard]] const Entry* begin() const noexcept { return dense_.data(); }
  [[nodiscard]] const Entry* end() const noexcept {
    return dense_.data() + dense_.size();
  }

 private:
  std::vector<Entry> dense_;          ///< live (id, slot) pairs, unordered
  std::vector<std::int32_t> pos_;     ///< slot -> dense index, -1 = not live
};

/// Open-addressing id -> slot hash map (linear probing, power-of-two
/// capacity, SplitMix64-mixed keys, backward-shift deletion — no
/// tombstones, so lookup cost stays O(1) under sustained insert/erase
/// churn). Capacity grows with the number of *simultaneously tracked* ids
/// and never with their numeric span, which is the streaming engine's
/// O(peak_live) memory bound.
class IdMap {
 public:
  /// find() result when the id is not tracked. Matches the engine's
  /// kSlotRetired sentinel: absent ids are retired, rejected or unseen.
  static constexpr std::int32_t kAbsent = -1;

  void clear() {
    keys_.assign(keys_.empty() ? kMinCapacity : keys_.size(), kEmptyKey);
    slots_.assign(keys_.size(), kAbsent);
    size_ = 0;
  }

  [[nodiscard]] std::int32_t find(JobId id) const noexcept {
    if (keys_.empty()) return kAbsent;
    std::size_t i = index_of(id);
    while (keys_[i] != kEmptyKey) {
      if (keys_[i] == id) return slots_[i];
      i = (i + 1) & mask();
    }
    return kAbsent;
  }

  /// Inserts a new id (must not be present).
  void insert(JobId id, std::int32_t slot) {
    if (keys_.empty()) clear();
    if ((size_ + 1) * 4 > keys_.size() * 3) rehash(keys_.size() * 2);
    std::size_t i = index_of(id);
    while (keys_[i] != kEmptyKey) {
      assert(keys_[i] != id);
      i = (i + 1) & mask();
    }
    keys_[i] = id;
    slots_[i] = slot;
    ++size_;
  }

  /// Erases a present id via backward-shift deletion (Knuth's Algorithm R):
  /// subsequent probe-chain members whose ideal bucket precedes the hole
  /// slide back, so no tombstone is left behind.
  void erase(JobId id) {
    std::size_t i = index_of(id);
    while (keys_[i] != id) {
      assert(keys_[i] != kEmptyKey);
      i = (i + 1) & mask();
    }
    std::size_t j = i;
    while (true) {
      keys_[i] = kEmptyKey;
      while (true) {
        j = (j + 1) & mask();
        if (keys_[j] == kEmptyKey) {
          --size_;
          return;
        }
        const std::size_t ideal = index_of(keys_[j]);
        // The entry at j may fill the hole at i unless its ideal bucket
        // lies cyclically within (i, j] — moving it would then break its
        // own probe chain.
        const bool stuck = i < j ? (ideal > i && ideal <= j)
                                 : (ideal > i || ideal <= j);
        if (!stuck) break;
      }
      keys_[i] = keys_[j];
      slots_[i] = slots_[j];
      i = j;
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return keys_.size(); }

 private:
  static constexpr JobId kEmptyKey = -1;
  static constexpr std::size_t kMinCapacity = 16;

  [[nodiscard]] std::size_t mask() const noexcept { return keys_.size() - 1; }
  [[nodiscard]] std::size_t index_of(JobId id) const noexcept {
    return static_cast<std::size_t>(
               mix64(static_cast<std::uint64_t>(id))) &
           mask();
  }

  void rehash(std::size_t new_capacity) {
    std::vector<JobId> old_keys = std::move(keys_);
    std::vector<std::int32_t> old_slots = std::move(slots_);
    keys_.assign(new_capacity, kEmptyKey);
    slots_.assign(new_capacity, kAbsent);
    size_ = 0;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] != kEmptyKey) insert(old_keys[i], old_slots[i]);
    }
  }

  std::vector<JobId> keys_;           ///< kEmptyKey marks an empty bucket
  std::vector<std::int32_t> slots_;
  std::size_t size_ = 0;
};

}  // namespace ecs::soa
