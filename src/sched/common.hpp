// common.hpp - Shared helpers for the scheduling policies.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/metrics.hpp"
#include "sim/policy.hpp"
#include "sim/projection.hpp"

namespace ecs {

/// Picks the target minimizing the projected completion of the job against
/// `clock`, preferring the job's current allocation on ties (so that a
/// policy that is merely re-confirming its decisions never discards
/// progress through the re-execution rule). Forwards to the clock's
/// hoisted cloud-scan kernel, ResourceClock::best_target.
[[nodiscard]] inline std::pair<int, Time> best_target_sticky(
    const Platform& platform, const ResourceClock& clock, const JobFields& f) {
  return clock.best_target(platform, f);
}
[[nodiscard]] inline std::pair<int, Time> best_target_sticky(
    const Platform& platform, const ResourceClock& clock,
    const JobState& state) {
  return clock.best_target(platform, state);
}

/// True when the event batch contains a job release.
[[nodiscard]] bool contains_release(const std::vector<Event>& events);

/// A job with its state slot (SimView::live_slots()) and its ordering key
/// (deadline for SSF-EDF, release for FCFS). The slot fills what would be
/// padding after the id.
struct OrderedJob {
  JobId id = -1;
  std::int32_t slot = -1;
  double key = 0.0;
};

/// Sorts by (key, id) — the canonical tie-break every ordered pass uses,
/// so decide() and feasibility probes can never disagree on ordering.
void sort_ordered(std::vector<OrderedJob>& order);

/// Same result as sort_ordered, for an order that was sorted under
/// slightly different keys (SSF-EDF re-keys one live set per feasibility
/// probe): an insertion sort, linear when few pairs swapped, that hands
/// over to sort_ordered once it has moved a few entries per element.
void resort_ordered(std::vector<OrderedJob>& order);

/// Fastest cloud still marked free in `cloud_free`, preferring clouds
/// available right now; clouds inside an availability outage serve only as
/// a fallback when nothing else is free. Returns -1 when no cloud is free.
/// Shared by the Greedy and SRPT pick loops.
[[nodiscard]] int pick_fresh_cloud(const SimView& view,
                                   const std::vector<char>& cloud_free);

/// Groups the clouds on which every job's uncontended estimate is the same:
/// `out[k]` is the lowest cloud id with k's speed, provided neither cloud
/// has announced outages (the estimate depends on the cloud only through
/// its speed and its outage windows); a cloud with outages is its own
/// class. On the paper platform every cloud falls in class 0.
void uncontended_cloud_classes(const Instance& instance,
                               std::vector<CloudId>& out);

/// One live job's row in the option table of a Greedy/SRPT pick loop. The
/// loop repeats a best-pick over (job, resource) until resources run out,
/// but each option's value — an uncontended completion, or the stretch
/// derived from it — is a pure function of (job, target, now), so it is
/// evaluated once per decide() and the picks only combine cached doubles
/// with the current free flags (PickTable).
struct PickOption {
  JobId id = -1;
  EdgeId origin = 0;
  int alloc = kAllocUnassigned;
  CloudId fresh_class = -1;  ///< class `fresh` was evaluated on; -1 = none
  double best_time = 0.0;
  double keep = 0.0;   ///< on the current allocation (also kTargetKeep)
  double edge = 0.0;   ///< restarting on the origin edge
  double fresh = 0.0;  ///< restarting on a cloud of `fresh_class`
  std::int32_t slot = -1;  ///< the job's state slot
  bool picked = false;
};

/// Tournament tree over the candidate slots of a pick loop: the minimum
/// key, the first slot holding it and the minimum over a slot range, each
/// in O(log n); rewriting one slot costs O(log n), rebuilding all O(n).
/// Lower keys are better — Greedy stores its stretches negated (exact), so
/// the one tree serves both policies. Empty slots and padding read +inf.
/// No allocation once warm.
class MinTree {
 public:
  /// Sizes the tree for `n` slots, every key +inf.
  void assign(std::size_t n);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Writes slot i's key only; refresh() or rebuild() restores the tree.
  void set(std::size_t i, double key) { nodes_[cap_ + i] = key; }
  /// Restores the tree above slots [lo, hi) after set().
  void refresh(std::size_t lo, std::size_t hi);
  void rebuild() { refresh(0, size_); }
  void update(std::size_t i, double key) {
    set(i, key);
    refresh(i, i + 1);
  }

  /// The slot keys, in slot order.
  [[nodiscard]] std::span<const double> keys() const {
    return {nodes_.data() + cap_, size_};
  }
  [[nodiscard]] double min() const { return nodes_[1]; }
  /// The first slot holding min(); size() when the tree is empty.
  [[nodiscard]] std::size_t first_min() const;
  /// Minimum key over slots [lo, hi); +inf for an empty range.
  [[nodiscard]] double min_of(std::size_t lo, std::size_t hi) const;

 private:
  std::vector<double> nodes_;  ///< [1] is the root; leaves from cap_
  std::size_t cap_ = 1;        ///< leaf count, a power of two >= size_
  std::size_t size_ = 0;
};

/// A pick over a MinTree: the slot (the tree's size() when nothing can be
/// placed) and whether the tree certified it without running the fold.
struct TreePick {
  std::size_t slot = 0;
  bool certified = true;
};

/// SRPT's pick rule over completion-time keys: walking the slots in
/// order, a slot replaces the current pick when it completes earlier by
/// more than kDecisionMargin. Returns keys.size() when no slot completes.
[[nodiscard]] std::size_t earliest_fold(std::span<const double> keys);

/// earliest_fold's result, certified from the tree in O(log n) when
/// possible. With M = min(), k = first_min() and P = the minimum before k,
/// the fold returns k whenever M < fl(P - kDecisionMargin) (and M beats the
/// fold's starting threshold): the fold's threshold on reaching k is
/// fl(b - margin) for some earlier key b >= P, or the starting threshold,
/// both above M by monotone rounding, so k replaces it; after k every key
/// is >= M >= fl(M - margin), so none replaces k. Otherwise the fold runs.
[[nodiscard]] TreePick pick_earliest(const MinTree& tree);

/// Greedy's pick rule over negated-stretch keys: the highest stretch; a
/// slot within kDecisionMargin of the current pick replaces it only with a
/// smaller `best_time(slot)` (short jobs are the most stretch-sensitive).
/// Starts from stretch -1. Returns keys.size() when nothing can be picked.
template <typename TiebreakFn>
[[nodiscard]] std::size_t max_stretch_fold(std::span<const double> keys,
                                           TiebreakFn&& best_time) {
  double best_value = -1.0;  // max over slots of the stretch
  double best_tiebreak = kTimeInfinity;
  std::size_t best = keys.size();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const double stretch = -keys[i];
    if (stretch > best_value - kDecisionMargin &&
        (stretch > best_value + kDecisionMargin ||
         best_time(i) < best_tiebreak)) [[unlikely]] {
      best_value = stretch;
      best_tiebreak = best_time(i);
      best = i;
    }
  }
  return best;
}

/// max_stretch_fold's result, certified from the tree in O(log n) when
/// possible. With M = the highest stretch, k = its first slot, B the
/// highest stretch before k and A the highest after k, the fold returns k
/// whenever fl(max(-1, B) + margin) < M and A <= fl(M - margin): on
/// reaching k the fold's best value is -1 or an earlier stretch, so at most
/// max(-1, B), and by monotone rounding M clears both of its tests; after
/// k no stretch exceeds fl(M - margin), which every replacement needs.
/// When M <= fl(-1 - margin) no slot passes the first test: nothing is
/// picked. Otherwise the fold runs.
template <typename TiebreakFn>
[[nodiscard]] TreePick pick_max_stretch(const MinTree& tree,
                                        TiebreakFn&& best_time) {
  const std::size_t n = tree.size();
  const double top = -tree.min();
  if (top <= -1.0 - kDecisionMargin) return {n, true};
  const std::size_t k = tree.first_min();
  const double before = -tree.min_of(0, k);
  const double after = -tree.min_of(k + 1, n);
  if (std::max(-1.0, before) + kDecisionMargin < top &&
      after <= top - kDecisionMargin) {
    return {k, true};
  }
  return {max_stretch_fold(tree.keys(), best_time), false};
}

/// Row indices grouped by a small integer key (an origin edge, an
/// allocated cloud), in row order within a group. Built in O(rows + keys)
/// once per decide(); no allocation once warm.
class RowBuckets {
 public:
  /// Groups rows [0, rows) by `key(row)` in [0, keys); a negative key
  /// leaves the row out.
  template <typename KeyFn>
  void build(std::size_t keys, std::size_t rows, KeyFn&& key) {
    start_.assign(keys + 1, 0);
    for (std::size_t r = 0; r < rows; ++r) {
      const int k = key(r);
      if (k >= 0) ++start_[static_cast<std::size_t>(k) + 1];
    }
    for (std::size_t k = 0; k < keys; ++k) start_[k + 1] += start_[k];
    rows_.resize(start_[keys]);
    fill_.assign(start_.begin(), start_.end() - 1);
    for (std::size_t r = 0; r < rows; ++r) {
      const int k = key(r);
      if (k >= 0) {
        rows_[fill_[static_cast<std::size_t>(k)]++] =
            static_cast<std::uint32_t>(r);
      }
    }
  }
  [[nodiscard]] std::span<const std::uint32_t> operator[](
      std::size_t k) const {
    return {rows_.data() + start_[k], start_[k + 1] - start_[k]};
  }

 private:
  std::vector<std::uint32_t> start_;
  std::vector<std::uint32_t> fill_;
  std::vector<std::uint32_t> rows_;
};

/// The option table of a Greedy/SRPT pick loop with its resource flags.
///
/// A row's candidates depend on the flags only through its origin edge
/// being free (the edge option, and the keep target of an edge-allocated
/// row), the fresh cloud (pick_fresh_cloud) being some cloud other than
/// its allocation, and the fresh cloud's class (the cached fresh value).
/// A claim therefore changes only:
///  * an edge claim: the rows of that origin;
///  * a cloud claim: nothing, unless it moves the fresh cloud — then the
///    rows allocated to the old or the new fresh cloud, or every row when
///    the class changes or no cloud is left.
/// Whether the own cloud of a kept row is still free changes its target
/// (the cloud, or kTargetKeep to wait) but not its value, so targets are
/// resolved at pick time: keep_target(), and fresh() for the fresh option.
class PickTable {
 public:
  /// Binds to the instance's cloud classes (uncontended_cloud_classes).
  void reset(const Instance& instance);

  /// Fills one row per live job, in live order, evaluating the keep option
  /// (assigned jobs) and the edge option (jobs not already on the edge)
  /// with `value(fields, target)`; frees every resource and groups the
  /// rows by origin and by allocated cloud. No allocation once warm.
  template <typename ValueFn>
  void gather(const SimView& view, ValueFn&& value) {
    const Platform& platform = view.platform();
    if (cloud_class_.size() !=
        static_cast<std::size_t>(platform.cloud_count())) {
      uncontended_cloud_classes(view.instance(), cloud_class_);
    }
    const std::span<const std::int32_t> slots = view.live_slots();
    rows_.resize(slots.size());
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const JobFields f = view.pool().fields(slots[i]);
      PickOption& o = rows_[i];
      o.id = f.job->id;
      o.slot = slots[i];
      o.origin = f.job->origin;
      o.alloc = f.alloc;
      o.fresh_class = -1;
      o.best_time = f.best_time;
      o.keep = f.alloc != kAllocUnassigned ? value(f, f.alloc) : kTimeInfinity;
      o.edge = f.alloc != kAllocEdge ? value(f, kAllocEdge) : kTimeInfinity;
      o.picked = false;
    }
    edge_free_.assign(static_cast<std::size_t>(platform.edge_count()), 1);
    cloud_free_.assign(static_cast<std::size_t>(platform.cloud_count()), 1);
    fresh_ = pick_fresh_cloud(view, cloud_free_);
    by_origin_.build(edge_free_.size(), rows_.size(),
                     [&](std::size_t r) { return rows_[r].origin; });
    by_cloud_.build(cloud_free_.size(), rows_.size(),
                    [&](std::size_t r) { return rows_[r].alloc; });
  }

  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }
  [[nodiscard]] PickOption& operator[](std::size_t r) { return rows_[r]; }

  [[nodiscard]] bool edge_free(const PickOption& o) const {
    return edge_free_[static_cast<std::size_t>(o.origin)] != 0;
  }
  /// The fresh cloud (pick_fresh_cloud over the free clouds); -1 = none.
  [[nodiscard]] int fresh() const noexcept { return fresh_; }
  /// The row's target for its keep option: its allocation while that
  /// resource is free, else kTargetKeep (wait for it).
  [[nodiscard]] int keep_target(const PickOption& o) const {
    const bool own_free =
        o.alloc == kAllocEdge
            ? edge_free(o)
            : cloud_free_[static_cast<std::size_t>(o.alloc)] != 0;
    return own_free ? o.alloc : kTargetKeep;
  }

  /// The row's value on the fresh cloud. Cached by the cloud's class
  /// (uncontended_cloud_classes): re-evaluated only when the fresh cloud
  /// has moved to another class, at most cloud_count times per decide() —
  /// never on a platform of identical, outage-free clouds.
  template <typename ValueFn>
  [[nodiscard]] double fresh_value(const SimView& view, PickOption& o,
                                   ValueFn&& value) {
    const CloudId cls = cloud_class_[static_cast<std::size_t>(fresh_)];
    if (o.fresh_class != cls) {
      o.fresh = value(view.pool().fields(o.slot), fresh_);
      o.fresh_class = cls;
    }
    return o.fresh;
  }

  /// Row `o` was picked for `target`: claims that resource, then calls
  /// `rederive(row)` for each unpicked row whose candidates it may have
  /// changed (see the class comment). Returns true instead when every row
  /// must be re-derived.
  template <typename RowFn>
  [[nodiscard]] bool claim(const SimView& view, const PickOption& o,
                           int target, RowFn&& rederive) {
    const auto each_unpicked = [&](std::span<const std::uint32_t> rows) {
      for (const std::uint32_t r : rows) {
        if (!rows_[r].picked) rederive(std::size_t{r});
      }
    };
    if (target == kAllocEdge) {
      edge_free_[static_cast<std::size_t>(o.origin)] = 0;
      each_unpicked(by_origin_[static_cast<std::size_t>(o.origin)]);
      return false;
    }
    if (target == kTargetKeep) return false;
    cloud_free_[static_cast<std::size_t>(target)] = 0;
    const int old = fresh_;
    fresh_ = pick_fresh_cloud(view, cloud_free_);
    if (fresh_ == old) return false;
    if (old < 0 || fresh_ < 0 ||
        cloud_class_[static_cast<std::size_t>(old)] !=
            cloud_class_[static_cast<std::size_t>(fresh_)]) {
      return true;
    }
    each_unpicked(by_cloud_[static_cast<std::size_t>(old)]);
    each_unpicked(by_cloud_[static_cast<std::size_t>(fresh_)]);
    return false;
  }

 private:
  std::vector<PickOption> rows_;  ///< one row per live job, live order
  std::vector<CloudId> cloud_class_;  ///< uncontended_cloud_classes()
  std::vector<char> edge_free_;
  std::vector<char> cloud_free_;
  int fresh_ = -1;
  RowBuckets by_origin_;  ///< rows by origin edge
  RowBuckets by_cloud_;   ///< rows by allocated cloud (edge/none left out)
};

/// Exponential doubling followed by bisection for the smallest stretch
/// accepted by `feasible`, starting from the lower bound `lo`, to relative
/// precision `epsilon`, spending at most `max_iterations` probes overall.
/// Returns the smallest stretch that was actually verified feasible (if the
/// doubling phase exhausts the probe budget, the last — largest — probe is
/// returned even if unverified; callers treat the result as best-effort).
/// Shared by SSF-EDF and Edge-Only. A template (not std::function) so the
/// zero-allocation decide() paths never pay a closure heap allocation.
template <typename FeasibleFn>
[[nodiscard]] double min_feasible_stretch(double lo, double epsilon,
                                          int max_iterations,
                                          FeasibleFn&& feasible) {
  double hi = std::max(lo, 1.0);
  int iterations = 0;
  while (!feasible(hi) && iterations < max_iterations) {
    hi *= 2.0;
    ++iterations;
  }
  double best = hi;
  double cursor = lo;
  while ((best - cursor) > epsilon * best && iterations < max_iterations) {
    const double mid = 0.5 * (cursor + best);
    if (feasible(mid)) {
      best = mid;
    } else {
      cursor = mid;
    }
    ++iterations;
  }
  return best;
}

/// Warm-started variant of min_feasible_stretch, bit-compatible with the
/// cold search: it returns the exact value the cold search would (same
/// bracket, same midpoint sequence, same probe budget accounting) while
/// usually spending far fewer probes on the doubling phase.
///
/// The cold search scans the rung ladder hi = base * 2^k (base =
/// max(lo, 1.0)) upward from k = 0 for the first feasible rung, paying one
/// probe per rung. The warm search instead jumps to the rung suggested by
/// `warm_hint` (the previous search's result — target stretches drift
/// slowly between consecutive releases) and walks down while the rung below
/// stays feasible, or up until a rung is feasible. Because feasibility is
/// monotone along the ladder (the property the bisection itself relies on),
/// both scans identify the same rung k*; rung values are exact (multiplying
/// by 2.0 is exact in binary floating point), and the bisection is then
/// entered with iterations = k* — exactly the number of failed probes the
/// cold doubling phase would have consumed — so the midpoint sequence and
/// the budget cutoff match the cold search bit for bit. `warm_hint <= 0`
/// (no previous search) falls back to the cold ladder scan.
template <typename FeasibleFn>
[[nodiscard]] double min_feasible_stretch_warm(double lo, double epsilon,
                                               int max_iterations,
                                               double warm_hint,
                                               FeasibleFn&& feasible) {
  const double base = std::max(lo, 1.0);
  int k = 0;         // first-feasible rung index (== cold's failed probes)
  double hi = base;  // rung(k)
  if (warm_hint <= 0.0) {
    // Cold ladder scan (identical to min_feasible_stretch's first loop).
    while (!feasible(hi) && k < max_iterations) {
      hi *= 2.0;
      ++k;
    }
  } else {
    // Start at the rung covering the hint: smallest k with rung(k) >= hint.
    while (hi < warm_hint && k < max_iterations) {
      hi *= 2.0;
      ++k;
    }
    if (k < max_iterations && feasible(hi)) {
      // Walk down: k* is the lowest feasible rung.
      while (k > 0) {
        const double below = 0.5 * hi;  // exact: rung(k-1)
        if (!feasible(below)) break;
        hi = below;
        --k;
      }
    } else {
      // Walk up: k* is the first feasible rung above the hint (under
      // ladder monotonicity nothing below the hint rung is feasible).
      bool hi_feasible = false;
      while (!hi_feasible && k < max_iterations) {
        hi *= 2.0;
        ++k;
        if (k < max_iterations) hi_feasible = feasible(hi);
      }
    }
  }
  // Bisection, bit-identical to the cold search: same (cursor, best)
  // bracket and the same remaining probe budget (max_iterations - k).
  int iterations = k;
  double best = hi;
  double cursor = lo;
  while ((best - cursor) > epsilon * best && iterations < max_iterations) {
    const double mid = 0.5 * (cursor + best);
    if (feasible(mid)) {
      best = mid;
    } else {
      cursor = mid;
    }
    ++iterations;
  }
  return best;
}

/// List assignment shared by the EDF-style policies: walks jobs in the
/// given order through a contention-aware projection, placing each on the
/// processor where it completes earliest. Only jobs whose next activity
/// would start *immediately* receive an explicit (re)allocation directive;
/// queued jobs get kTargetKeep, so their progress is never discarded just
/// because the projection shuffled the queue behind the running jobs. All
/// directives carry the rank in `order` as priority. Each entry's `slot`
/// must hold its job's state slot; the walk gathers through it.
///
/// Provenance: immediate placements are annotated with `local_reason`
/// (edge target) or `offload_reason` (cloud target) — the calling policy's
/// semantics for "why this side of the platform" — and queued jobs with
/// kQueuedBehindPriority.
///
/// Two shortcuts leave every directive as the full walk emits it
/// (DESIGN.md §6):
///  * Replay: a non-empty `targets` holds the target of every entry of
///    `order`, recorded by a projection pass that walked this same order
///    from a clock reset at view.now() (SSF-EDF's accepted feasibility
///    probe), so the walk commits those targets without re-running
///    best_target. Checked against best_target in non-NDEBUG builds.
///  * Saturation exit: once the clock is saturated at now
///    (ResourceClock::saturated, tested every few placements), no later
///    job can start now on any target, so the rest of the order is
///    emitted as queued without being projected.
///
/// Workspace form: `clock` must be bound to the view's instance (the
/// function resets it); directives are appended to `out`. Neither argument
/// allocates once warm — this is the zero-allocation hot path.
void list_assign_directives(
    const SimView& view, const std::vector<OrderedJob>& order,
    ResourceClock& clock, std::vector<Directive>& out,
    ReasonCode local_reason = ReasonCode::kProjectedBestCompletion,
    ReasonCode offload_reason = ReasonCode::kProjectedBestCompletion,
    std::span<const int> targets = {});

/// Allocating convenience overload (tests, one-off tools).
[[nodiscard]] std::vector<Directive> list_assign_directives(
    const SimView& view, const std::vector<OrderedJob>& order);

}  // namespace ecs
