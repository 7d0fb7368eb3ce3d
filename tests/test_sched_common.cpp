// Tests for the shared policy helpers (sched/common.hpp): sticky target
// selection, the immediate-start list assignment and the certified picks.
#include "sched/common.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <random>

#include "sim/engine.hpp"

namespace ecs {
namespace {

JobState make_state(const Platform& platform, Job job) {
  JobState s;
  s.job = job;
  s.best_time = platform.best_time(job);
  s.released = true;
  return s;
}

TEST(BestTargetSticky, PicksStrictlyBetterTarget) {
  const Platform platform({0.25}, 1);
  ResourceClock clock(platform, 0.0);
  const JobState s = make_state(platform, {0, 0, 2.0, 0.0, 0.5, 0.5});
  // Cloud 3 < edge 8.
  const auto [target, done] = best_target_sticky(platform, clock, s);
  EXPECT_EQ(target, 0);
  EXPECT_DOUBLE_EQ(done, 3.0);
}

TEST(BestTargetSticky, KeepsCurrentAllocationOnTies) {
  // Two identical clouds: a job already allocated to cloud 1 must stay
  // there rather than hopping to the equivalent cloud 0.
  const Platform platform({0.25}, 2);
  ResourceClock clock(platform, 0.0);
  JobState s = make_state(platform, {0, 0, 2.0, 0.0, 0.5, 0.5});
  s.alloc = 1;
  s.rem_up = 0.5;
  s.rem_work = 2.0;
  s.rem_down = 0.5;
  const auto [target, done] = best_target_sticky(platform, clock, s);
  EXPECT_EQ(target, 1);
  EXPECT_DOUBLE_EQ(done, 3.0);
}

TEST(BestTargetSticky, ProgressMakesCurrentAllocationWin) {
  // Continuing (remaining work 0.5) beats even an idle fresh cloud.
  const Platform platform({0.25}, 2);
  ResourceClock clock(platform, 0.0);
  JobState s = make_state(platform, {0, 0, 2.0, 0.0, 0.5, 0.5});
  s.alloc = 0;
  s.rem_up = 0.0;
  s.rem_work = 0.5;
  s.rem_down = 0.5;
  const auto [target, done] = best_target_sticky(platform, clock, s);
  EXPECT_EQ(target, 0);
  EXPECT_DOUBLE_EQ(done, 1.0);
}

TEST(BestTargetSticky, LeavesCurrentWhenGenuinelyBetterElsewhere) {
  // The job sits unstarted on a cloud whose CPU is booked far into the
  // future; the edge is strictly better.
  const Platform platform({1.0}, 1);
  ResourceClock clock(platform, 0.0);
  const JobState blocker = make_state(platform, {1, 0, 50.0, 0.0, 0.0, 0.0});
  (void)clock.commit(platform, blocker, 0);
  JobState s = make_state(platform, {0, 0, 2.0, 0.0, 0.1, 0.1});
  s.alloc = 0;
  s.rem_up = 0.1;
  s.rem_work = 2.0;
  s.rem_down = 0.1;
  const auto [target, done] = best_target_sticky(platform, clock, s);
  EXPECT_EQ(target, kAllocEdge);
  EXPECT_DOUBLE_EQ(done, 2.0);
}

TEST(ContainsRelease, DetectsReleaseKind) {
  EXPECT_FALSE(contains_release({}));
  EXPECT_FALSE(contains_release({{EventKind::kComputeDone, 0, 1.0}}));
  EXPECT_TRUE(contains_release({{EventKind::kComputeDone, 0, 1.0},
                                {EventKind::kRelease, 1, 1.0}}));
}

TEST(ListAssign, OnlyImmediateStartersGetExplicitTargets) {
  // Three jobs from one edge, one cloud. In key order: J0 takes the cloud
  // (uplink starts now). J1's cloud route queues behind J0 on both the
  // send port and the cloud CPU (done at 5.5), so its best target is the
  // free edge (done at 4.0) — an immediate start, explicit directive.
  // J2 then finds the edge claimed and the cloud route queued: it keeps
  // (kTargetKeep) and waits for a later event.
  Instance instance;
  instance.platform = Platform({0.5}, 1);
  instance.jobs = {{0, 0, 2.0, 0.0, 1.0, 0.5},
                   {1, 0, 2.0, 0.0, 1.0, 0.5},
                   {2, 0, 0.4, 0.0, 5.0, 5.0}};
  std::vector<JobState> states;
  for (const Job& job : instance.jobs) {
    states.push_back(JobState{});
    states.back().job = job;
    states.back().best_time = instance.platform.best_time(job);
    states.back().released = true;
  }
  const SimView view(instance, states, 0.0);
  const std::vector<Directive> directives = list_assign_directives(
      view, {{0, 1.0}, {1, 2.0}, {2, 3.0}});
  ASSERT_EQ(directives.size(), 3u);
  EXPECT_EQ(directives[0].job, 0);
  EXPECT_EQ(directives[0].target, 0);  // starts uplink now
  EXPECT_EQ(directives[1].job, 1);
  EXPECT_EQ(directives[1].target, kAllocEdge);  // edge 4.0 < queued cloud
  EXPECT_EQ(directives[2].job, 2);
  EXPECT_EQ(directives[2].target, kTargetKeep);  // everything queued
  // Priorities follow the key order.
  EXPECT_LT(directives[0].priority, directives[1].priority);
  EXPECT_LT(directives[1].priority, directives[2].priority);
}

// ---------------------------------------------------------------------------
// MinTree and the certified picks. The reference folds below are the pick
// loops Greedy and SRPT ran before the tree, kept verbatim: every pick the
// tree returns — certified or through the fallback — must be theirs.

std::size_t reference_greedy_fold(const std::vector<double>& stretch,
                                  const std::vector<double>& best_time) {
  double best_value = -1.0;
  double best_tiebreak = std::numeric_limits<double>::infinity();
  std::size_t best = stretch.size();
  for (std::size_t i = 0; i < stretch.size(); ++i) {
    if (stretch[i] > best_value - kDecisionMargin &&
        (stretch[i] > best_value + kDecisionMargin ||
         best_time[i] < best_tiebreak)) {
      best_value = stretch[i];
      best_tiebreak = best_time[i];
      best = i;
    }
  }
  return best;
}

std::size_t reference_srpt_fold(const std::vector<double>& done) {
  Time threshold = kTimeInfinity - kDecisionMargin;
  std::size_t best = done.size();
  for (std::size_t i = 0; i < done.size(); ++i) {
    if (done[i] < threshold) {
      threshold = done[i] - kDecisionMargin;
      best = i;
    }
  }
  return best;
}

TEST(MinTree, FirstMinAndRangeMinima) {
  MinTree tree;
  tree.assign(0);
  EXPECT_EQ(tree.first_min(), 0u);
  EXPECT_EQ(tree.min(), kTimeInfinity);

  const std::vector<double> keys = {5.0, 3.0, 7.0, 3.0, 9.0};
  tree.assign(keys.size());  // not a power of two: padded with +inf
  for (std::size_t i = 0; i < keys.size(); ++i) tree.set(i, keys[i]);
  tree.rebuild();
  EXPECT_EQ(tree.min(), 3.0);
  EXPECT_EQ(tree.first_min(), 1u);  // ties go to the first slot
  EXPECT_EQ(tree.min_of(0, 1), 5.0);
  EXPECT_EQ(tree.min_of(2, 5), 3.0);
  EXPECT_EQ(tree.min_of(4, 5), 9.0);
  EXPECT_EQ(tree.min_of(2, 2), kTimeInfinity);
  tree.update(1, kTimeInfinity);
  EXPECT_EQ(tree.first_min(), 3u);
  tree.update(4, -1.0);
  EXPECT_EQ(tree.first_min(), 4u);
  EXPECT_EQ(tree.min_of(0, 4), 3.0);
  EXPECT_EQ(tree.keys().size(), keys.size());
  EXPECT_EQ(tree.keys()[4], -1.0);
}

/// Values spaced at fractions of the decision margin around a few bases,
/// so that near-ties on both sides of every margin test occur, plus the
/// infinities and the neighbourhood of Greedy's starting value -1.
double draw_value(std::mt19937& rng) {
  constexpr double kM = kDecisionMargin;
  static const double kBases[] = {3.0, 3.0 + 10 * kM, 40.0};
  static const double kOffsets[] = {0.0, 0.5 * kM, kM, 1.5 * kM, 2.0 * kM,
                                    3.0 * kM};
  static const double kSpecial[] = {kTimeInfinity, -kTimeInfinity,
                                    -1.0 - kM,     -1.0,
                                    -1.0 + kM,     -1.0 + 0.5 * kM};
  const std::uint32_t u = rng() % 24;
  if (u < 4) return kSpecial[rng() % std::size(kSpecial)];
  return kBases[rng() % std::size(kBases)] + kOffsets[rng() % std::size(kOffsets)];
}

TEST(CertifiedPick, GreedyMatchesReferenceFoldOnRandomSequences) {
  std::mt19937 rng(12345);
  std::size_t certified = 0;
  std::size_t fallback = 0;
  MinTree tree;
  for (int round = 0; round < 400; ++round) {
    const std::size_t n = 1 + rng() % 40;
    std::vector<double> stretch(n);
    std::vector<double> best_time(n);
    tree.assign(n);
    for (std::size_t i = 0; i < n; ++i) {
      stretch[i] = draw_value(rng);
      best_time[i] = 1.0 + static_cast<double>(rng() % 3);  // equal ones too
      tree.set(i, -stretch[i]);
    }
    tree.rebuild();
    for (std::size_t step = 0; step <= n; ++step) {
      const TreePick pick = pick_max_stretch(
          tree, [&](std::size_t i) { return best_time[i]; });
      const std::size_t want = reference_greedy_fold(stretch, best_time);
      ASSERT_EQ(pick.slot, want) << "round " << round << " step " << step;
      ++(pick.certified ? certified : fallback);
      if (want == n) break;
      // The pick leaves the table; a claim re-derives a few other rows.
      stretch[want] = -kTimeInfinity;
      tree.update(want, kTimeInfinity);
      for (std::uint32_t k = rng() % 3; k > 0; --k) {
        const std::size_t i = rng() % n;
        if (stretch[i] == -kTimeInfinity) continue;
        stretch[i] = draw_value(rng);
        tree.update(i, -stretch[i]);
      }
    }
  }
  EXPECT_GT(certified, 0u);
  EXPECT_GT(fallback, 0u);
}

TEST(CertifiedPick, SrptMatchesReferenceFoldOnRandomSequences) {
  std::mt19937 rng(54321);
  std::size_t certified = 0;
  std::size_t fallback = 0;
  MinTree tree;
  for (int round = 0; round < 400; ++round) {
    const std::size_t n = 1 + rng() % 60;
    std::vector<double> done(n);
    tree.assign(n);
    for (std::size_t i = 0; i < n; ++i) {
      done[i] = draw_value(rng);
      tree.set(i, done[i]);
    }
    tree.rebuild();
    for (std::size_t step = 0; step <= n; ++step) {
      const TreePick pick = pick_earliest(tree);
      const std::size_t want = reference_srpt_fold(done);
      ASSERT_EQ(pick.slot, want) << "round " << round << " step " << step;
      ++(pick.certified ? certified : fallback);
      if (want == n) break;
      done[want] = kTimeInfinity;
      tree.update(want, kTimeInfinity);
      for (std::uint32_t k = rng() % 3; k > 0; --k) {
        const std::size_t i = rng() % n;
        if (done[i] == kTimeInfinity) continue;
        done[i] = draw_value(rng);
        tree.update(i, done[i]);
      }
    }
  }
  EXPECT_GT(certified, 0u);
  EXPECT_GT(fallback, 0u);
}

TEST(CertifiedPick, NearTiesFallBackToTheFold) {
  constexpr double kM = kDecisionMargin;
  MinTree tree;
  // Greedy: the highest stretch comes first, but a later slot within the
  // margin has a smaller best_time and wins the tie-break.
  const std::vector<double> stretch = {2.0, 2.0 - 0.5 * kM, 1.0};
  const std::vector<double> best_time = {5.0, 1.0, 1.0};
  tree.assign(stretch.size());
  for (std::size_t i = 0; i < stretch.size(); ++i) tree.set(i, -stretch[i]);
  tree.rebuild();
  const TreePick greedy =
      pick_max_stretch(tree, [&](std::size_t i) { return best_time[i]; });
  EXPECT_EQ(greedy.slot, 1u);
  EXPECT_FALSE(greedy.certified);

  // SRPT: the earliest completion comes second, within the margin of the
  // first, which therefore keeps the pick.
  const std::vector<double> done = {4.0 + 0.5 * kM, 4.0, 9.0};
  tree.assign(done.size());
  for (std::size_t i = 0; i < done.size(); ++i) tree.set(i, done[i]);
  tree.rebuild();
  const TreePick srpt = pick_earliest(tree);
  EXPECT_EQ(srpt.slot, 0u);
  EXPECT_FALSE(srpt.certified);

  // Clear winners are certified; nothing placeable is certified empty.
  tree.update(0, 7.0);
  EXPECT_EQ(pick_earliest(tree).slot, 1u);
  EXPECT_TRUE(pick_earliest(tree).certified);
  for (std::size_t i = 0; i < done.size(); ++i) tree.update(i, kTimeInfinity);
  EXPECT_EQ(pick_earliest(tree).slot, done.size());
  EXPECT_TRUE(pick_earliest(tree).certified);
}

}  // namespace
}  // namespace ecs
