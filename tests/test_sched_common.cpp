// Tests for the shared policy helpers (sched/common.hpp): sticky target
// selection, the immediate-start list assignment and the certified picks.
#include "sched/common.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <random>

#include "paper_scenario.hpp"
#include "reference_policies.hpp"
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
  const soa::StatePool pool = pool_of(states);
  const SimView view(instance, pool, 0.0);
  const std::vector<Directive> directives = list_assign_directives(
      view, {{0, 0, 1.0}, {1, 1, 2.0}, {2, 2, 3.0}});
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
// List assignment's saturation exit and replay, against the frozen full walk
// (ref::list_assign_directives walks and projects every job). Each state is
// checked for where the full walk first saturates the clock: right after the
// first job, mid-order, or never.

/// Position after whose placement the full walk first finds the clock
/// saturated at now; order.size() when it never does.
std::size_t saturation_point(const SimView& view,
                             const std::vector<OrderedJob>& order) {
  ResourceClock clock(view.instance(), view.now());
  for (std::size_t i = 0; i < order.size(); ++i) {
    const JobFields f = view.fields(order[i].id);
    clock.commit(view.platform(), f,
                 best_target_sticky(view.platform(), clock, f).first);
    if (clock.saturated(view.now())) return i;
  }
  return order.size();
}

/// The full walk's target per position — what an SSF-EDF probe records.
std::vector<int> walk_targets(const SimView& view,
                              const std::vector<OrderedJob>& order) {
  ResourceClock clock(view.instance(), view.now());
  std::vector<int> targets;
  for (const OrderedJob& entry : order) {
    const JobFields f = view.fields(entry.id);
    targets.push_back(best_target_sticky(view.platform(), clock, f).first);
    clock.commit(view.platform(), f, targets.back());
  }
  return targets;
}

void expect_same_directives(const std::vector<Directive>& got,
                            const std::vector<Directive>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].job, want[i].job) << "directive " << i;
    EXPECT_EQ(got[i].target, want[i].target) << "directive " << i;
    EXPECT_EQ(got[i].priority, want[i].priority) << "directive " << i;
  }
}

/// Both forms — walked and replayed — against the reference.
void expect_list_assign_matches_reference(
    const SimView& view, const std::vector<OrderedJob>& order) {
  const std::vector<Directive> want = ref::list_assign_directives(view, order);
  SCOPED_TRACE("walked");
  expect_same_directives(list_assign_directives(view, order), want);
  SCOPED_TRACE("replayed");
  ResourceClock clock(view.instance(), view.now());
  std::vector<Directive> replayed;
  const std::vector<int> targets = walk_targets(view, order);
  list_assign_directives(view, order, clock, replayed,
                         ReasonCode::kProjectedBestCompletion,
                         ReasonCode::kProjectedBestCompletion, targets);
  expect_same_directives(replayed, want);
}

/// The live set of a scenario in a scrambled but deterministic order. The
/// scenarios' views are hand-made, so each job's slot is its id.
std::vector<OrderedJob> scrambled_order(const std::vector<JobId>& live,
                                        std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> key(0.0, 1.0);
  std::vector<OrderedJob> order;
  for (const JobId id : live) order.push_back(OrderedJob{id, id, key(rng)});
  sort_ordered(order);
  return order;
}

TEST(ListAssignSaturation, SaturatedAtTheFirstJob) {
  // One edge and no cloud: the first placement fills the only CPU, and
  // with no cloud ports every transfer is blocked — the walk is saturated
  // from the second job on, which the exit skips after its first test.
  Instance instance;
  instance.platform = Platform({0.5}, 0);
  for (int i = 0; i < 20; ++i) {
    instance.jobs.push_back(Job{i, 0, 1.0 + 0.1 * i, 0.0, 0.5, 0.5});
  }
  std::vector<JobState> states;
  std::vector<JobId> live;
  for (const Job& job : instance.jobs) {
    states.push_back(make_state(instance.platform, job));
    live.push_back(job.id);
  }
  const soa::StatePool pool = pool_of(states);
  const SimView view(instance, pool, 0.0);
  const std::vector<OrderedJob> order = scrambled_order(live, 1);
  ASSERT_EQ(saturation_point(view, order), 0U);
  expect_list_assign_matches_reference(view, order);
}

TEST(ListAssignSaturation, SaturatedMidOrderOnThePaperPlatform) {
  const PaperDecideScenario scenario(1000);
  const soa::StatePool pool = pool_of(scenario.states);
  const SimView view(scenario.instance, pool, scenario.now, &scenario.live);
  for (const std::uint32_t seed : {1U, 2U}) {
    const std::vector<OrderedJob> order = scrambled_order(scenario.live, seed);
    const std::size_t point = saturation_point(view, order);
    ASSERT_GT(point, 8U);
    ASSERT_LT(point + 8, order.size());
    expect_list_assign_matches_reference(view, order);
  }
}

TEST(ListAssignSaturation, NeverSaturatedWithFewerJobsThanCpus) {
  // 30 jobs cannot keep 40 CPUs busy.
  const PaperDecideScenario scenario(30);
  const soa::StatePool pool = pool_of(scenario.states);
  const SimView view(scenario.instance, pool, scenario.now, &scenario.live);
  const std::vector<OrderedJob> order = scrambled_order(scenario.live, 3);
  ASSERT_EQ(saturation_point(view, order), order.size());
  expect_list_assign_matches_reference(view, order);
}

TEST(ListAssignSaturation, CloudOutagesStayExact) {
  // A quarter of the clouds are down at now, some come back mid-walk,
  // the rest have windows ahead: nothing starts on a cloud that is down,
  // and the walk's exit must still match the reference.
  PaperDecideScenario scenario(1000);
  const Time now = scenario.now;
  const int clouds = scenario.instance.platform.cloud_count();
  scenario.instance.cloud_outages.assign(static_cast<std::size_t>(clouds),
                                         IntervalSet{});
  for (int k = 0; k < clouds; ++k) {
    IntervalSet& outages = scenario.instance.cloud_outages[k];
    if (k % 4 == 0) outages.add(now - 1.0, now + 5.0 + k);
    if (k % 3 == 0) outages.add(now + 20.0, now + 40.0);
  }
  const soa::StatePool pool = pool_of(scenario.states);
  const SimView view(scenario.instance, pool, now, &scenario.live);
  const std::vector<OrderedJob> order = scrambled_order(scenario.live, 4);
  ASSERT_LT(saturation_point(view, order), order.size());
  expect_list_assign_matches_reference(view, order);
}

TEST(ListAssignSaturation, SaturatedClockStaysSaturatedUnderCommits) {
  // Past the saturation point, commit the remaining jobs to their best
  // targets and to arbitrary ones: the clock stays saturated and no job
  // can start on any target.
  const PaperDecideScenario scenario(1000);
  const soa::StatePool pool = pool_of(scenario.states);
  const SimView view(scenario.instance, pool, scenario.now, &scenario.live);
  const Platform& platform = scenario.instance.platform;
  const std::vector<OrderedJob> order = scrambled_order(scenario.live, 5);
  const std::size_t point = saturation_point(view, order);
  ASSERT_LT(point, order.size());

  ResourceClock clock(scenario.instance, scenario.now);
  for (std::size_t i = 0; i <= point; ++i) {
    const JobFields f = view.fields(order[i].id);
    clock.commit(platform, f, best_target_sticky(platform, clock, f).first);
  }
  ASSERT_TRUE(clock.saturated(scenario.now));
  for (std::size_t i = point + 1; i < order.size(); ++i) {
    const JobFields f = view.fields(order[i].id);
    const int target =
        i % 2 == 0 ? best_target_sticky(platform, clock, f).first
                   : static_cast<int>(i % (platform.cloud_count() + 1)) - 1;
    clock.commit(platform, f, target);
    ASSERT_TRUE(clock.saturated(scenario.now)) << "after commit " << i;
    if (i % 16 != 0) continue;
    for (const OrderedJob& entry : order) {
      const JobFields g = view.fields(entry.id);
      for (int t = kAllocEdge; t < platform.cloud_count(); ++t) {
        ASSERT_FALSE(clock.starts_now(platform, g, t, scenario.now))
            << "job " << entry.id << " target " << t;
      }
    }
  }
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
