// Tests for the SoA state-pool building blocks (sim/soa.hpp). The IdMap is
// the streaming engine's O(peak_live) memory claim made concrete: its
// capacity must track the number of SIMULTANEOUSLY live ids, never their
// numeric span — the old dense window map grew with (max id - min live id),
// which a single long-running job under churn blows up to O(n). The fuzz
// suites drive insert/erase/find against std::unordered_map as the oracle.
// The StatePool cases pin the AoS read cache behind SimView::state() /
// states(): it mirrors the components, goes stale only on
// invalidate_view(), and costs nothing when nobody reads it.
#include "sim/soa.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <memory>
#include <vector>

#include "paper_scenario.hpp"
#include "sched/factory.hpp"
#include "sim/arrivals.hpp"
#include "sim/engine_core.hpp"
#include "util/rng.hpp"

namespace ecs {
namespace {

TEST(IdMap, FindOnEmptyAndAfterClear) {
  soa::IdMap map;
  EXPECT_EQ(map.find(0), soa::IdMap::kAbsent);
  EXPECT_EQ(map.size(), 0u);
  map.insert(7, 3);
  EXPECT_EQ(map.find(7), 3);
  map.clear();
  EXPECT_EQ(map.find(7), soa::IdMap::kAbsent);
  EXPECT_EQ(map.size(), 0u);
}

TEST(IdMap, FuzzAgainstUnorderedMapOracle) {
  soa::IdMap map;
  std::unordered_map<JobId, std::int32_t> oracle;
  Rng rng(2024);
  JobId next_id = 0;
  std::vector<JobId> live;
  for (int step = 0; step < 200'000; ++step) {
    const double roll = rng.uniform(0.0, 1.0);
    if (live.empty() || roll < 0.5) {
      const JobId id = next_id++;
      const auto slot = static_cast<std::int32_t>(id % 97);
      map.insert(id, slot);
      oracle.emplace(id, slot);
      live.push_back(id);
    } else {
      // Erase a uniformly random live id — NOT fifo order, so the probe
      // chains see holes in arbitrary positions (the backward-shift
      // deletion's hard case).
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform(0.0, static_cast<double>(live.size()) - 0.001));
      const JobId id = live[pick];
      live[pick] = live.back();
      live.pop_back();
      map.erase(id);
      oracle.erase(id);
    }
    ASSERT_EQ(map.size(), oracle.size()) << "step " << step;
    // Point probes: a handful of present and absent keys every step.
    for (int probe = 0; probe < 4; ++probe) {
      const JobId id = static_cast<JobId>(
          rng.uniform(0.0, static_cast<double>(next_id) + 10.0));
      const auto it = oracle.find(id);
      ASSERT_EQ(map.find(id),
                it == oracle.end() ? soa::IdMap::kAbsent : it->second)
          << "step " << step << " id " << id;
    }
  }
}

TEST(IdMap, CapacityTracksLiveCountNotIdSpan) {
  // Sliding-window churn: one insert + one erase per step keeps exactly
  // kWindow ids live while their numeric values march to 1e6. The dense
  // window map this replaced would hold ~span entries whenever any old id
  // stayed live; the hash map must stay at the capacity a kWindow-sized
  // set needs, forever.
  constexpr int kWindow = 48;
  soa::IdMap map;
  for (JobId id = 0; id < kWindow; ++id) {
    map.insert(id, static_cast<std::int32_t>(id));
  }
  // Warm up past the first few churn steps (insert-before-erase peaks at
  // kWindow + 1 occupancy, which may cross the load factor exactly once),
  // then the capacity must hold for the remaining ~1M steps.
  for (JobId id = kWindow; id < kWindow + 256; ++id) {
    map.insert(id, static_cast<std::int32_t>(id % kWindow));
    map.erase(id - kWindow);
  }
  const std::size_t settled = map.capacity();
  EXPECT_LE(settled, 256u);  // O(window), nowhere near the id span
  for (JobId id = kWindow + 256; id < 1'000'000; ++id) {
    map.insert(id, static_cast<std::int32_t>(id % kWindow));
    map.erase(id - kWindow);
  }
  EXPECT_EQ(map.size(), static_cast<std::size_t>(kWindow));
  EXPECT_EQ(map.capacity(), settled);
  // And the survivors are all still findable at their latest slots.
  for (JobId id = 1'000'000 - kWindow; id < 1'000'000; ++id) {
    EXPECT_EQ(map.find(id), static_cast<std::int32_t>(id % kWindow));
  }
}

TEST(IdMap, AdversarialColliderIdsStillBehave) {
  // Ids a power-of-two stride apart defeat a masked identity hash; the
  // SplitMix64 mix must spread them. Correctness (not speed) is what the
  // oracle checks here — every probe chain with collisions still resolves.
  soa::IdMap map;
  std::unordered_map<JobId, std::int32_t> oracle;
  std::vector<JobId> ids;
  for (JobId i = 0; i < 512; ++i) ids.push_back(i * 4096);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    map.insert(ids[i], static_cast<std::int32_t>(i));
    oracle.emplace(ids[i], static_cast<std::int32_t>(i));
  }
  // Erase every third, then re-probe everything.
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    map.erase(ids[i]);
    oracle.erase(ids[i]);
  }
  for (const JobId id : ids) {
    const auto it = oracle.find(id);
    EXPECT_EQ(map.find(id),
              it == oracle.end() ? soa::IdMap::kAbsent : it->second);
  }
  EXPECT_EQ(map.size(), oracle.size());
}

TEST(LiveIndex, SwapEraseKeepsDenseIterationConsistent) {
  soa::LiveIndex live;
  live.reset(8);
  live.insert(10, 0);
  live.insert(11, 3);
  live.insert(12, 5);
  ASSERT_EQ(live.size(), 3u);

  // Erase the middle slot: the last entry swaps into its place.
  live.erase(3);
  std::set<JobId> seen;
  for (const soa::LiveIndex::Entry& e : live) {
    seen.insert(e.id);
    EXPECT_TRUE(e.slot == 0 || e.slot == 5);
  }
  EXPECT_EQ(seen, (std::set<JobId>{10, 12}));

  // Slot 3 can be reused for a new id after the erase.
  live.insert(13, 3);
  EXPECT_EQ(live.size(), 3u);
  seen.clear();
  for (const soa::LiveIndex::Entry& e : live) seen.insert(e.id);
  EXPECT_EQ(seen, (std::set<JobId>{10, 12, 13}));

  live.erase(0);
  live.erase(5);
  live.erase(3);
  EXPECT_TRUE(live.empty());
}

TEST(LiveIndex, GrowExtendsSlotRange) {
  soa::LiveIndex live;
  live.reset(1);
  live.insert(0, 0);
  live.grow();  // streaming pool grew a slot
  live.insert(1, 1);
  EXPECT_EQ(live.size(), 2u);
  live.erase(0);
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live.begin()->id, 1);
  EXPECT_EQ(live.begin()->slot, 1);
}


void expect_same_state(const JobState& got, const JobState& want) {
  EXPECT_EQ(got.job.id, want.job.id);
  EXPECT_EQ(got.job.origin, want.job.origin);
  EXPECT_EQ(got.job.work, want.job.work);
  EXPECT_EQ(got.job.release, want.job.release);
  EXPECT_EQ(got.best_time, want.best_time);
  EXPECT_EQ(got.alloc, want.alloc);
  EXPECT_EQ(got.rem_up, want.rem_up);
  EXPECT_EQ(got.rem_work, want.rem_work);
  EXPECT_EQ(got.rem_down, want.rem_down);
  EXPECT_EQ(got.active, want.active);
  EXPECT_EQ(got.rate, want.rate);
  EXPECT_EQ(got.last_update, want.last_update);
  EXPECT_EQ(got.was_active, want.was_active);
  EXPECT_EQ(got.released, want.released);
  EXPECT_EQ(got.done, want.done);
  EXPECT_EQ(got.completion, want.completion);
  EXPECT_EQ(got.reassignments, want.reassignments);
}

TEST(StatePool, PoolBackedViewReadsLikeItsStates) {
  PaperDecideScenario scenario(60);
  // Exercise every field, not only the ones the scenario sets.
  for (std::size_t i = 0; i < scenario.states.size(); ++i) {
    JobState& s = scenario.states[i];
    s.active = static_cast<Activity>(i % 4);
    s.rate = 0.5 + static_cast<double>(i);
    s.last_update = 0.25 * static_cast<double>(i);
    s.was_active = i % 3 == 0;
    s.done = i % 7 == 0;
    s.completion = s.done ? 100.0 + static_cast<double>(i) : -1.0;
    s.reassignments = static_cast<int>(i % 5);
  }
  const soa::StatePool pool = pool_of(scenario.states);
  const SimView view(scenario.instance, pool, scenario.now);
  ASSERT_EQ(view.state_count(), scenario.states.size());

  for (const JobState& want : scenario.states) {
    const JobId id = want.job.id;
    const JobFields got = view.fields(id);
    const JobFields expected = fields_of(want);
    EXPECT_EQ(got.job->id, expected.job->id);
    EXPECT_EQ(got.best_time, expected.best_time);
    EXPECT_EQ(got.alloc, expected.alloc);
    EXPECT_EQ(got.rem_up, expected.rem_up);
    EXPECT_EQ(got.rem_work, expected.rem_work);
    EXPECT_EQ(got.rem_down, expected.rem_down);
    expect_same_state(view.state(id), want);
  }
  const std::vector<JobState>& all = view.states();
  ASSERT_EQ(all.size(), scenario.states.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    expect_same_state(all[i], scenario.states[i]);
  }
  // The fallback live list comes from the pool: released and not done.
  std::vector<JobId> live;
  for (const JobState& s : scenario.states) {
    if (s.live()) live.push_back(s.job.id);
  }
  const std::span<const JobId> got_live = view.live_jobs();
  EXPECT_EQ(std::vector<JobId>(got_live.begin(), got_live.end()), live);
}

TEST(StatePool, ComponentWritesShowAfterInvalidate) {
  const PaperDecideScenario scenario(8);
  soa::StatePool pool = pool_of(scenario.states);
  const SimView view(scenario.instance, pool, scenario.now);
  const double before = view.state(3).rem_work;
  ASSERT_EQ(view.states()[3].rem_work, before);

  pool.rem_work(3) = before + 1.0;
  pool.alloc(5) = kAllocEdge;
  // The cache holds the entries published in this epoch...
  EXPECT_EQ(view.state(3).rem_work, before);
  // ...and republishes them after the next invalidation.
  pool.invalidate_view();
  EXPECT_EQ(view.state(3).rem_work, before + 1.0);
  EXPECT_EQ(view.states()[5].alloc, kAllocEdge);
  EXPECT_EQ(view.states()[3].rem_work, before + 1.0);

  pool.rem_down(5) = 42.0;
  pool.invalidate_view();
  EXPECT_EQ(view.states()[5].rem_down, 42.0);
}

TEST(StatePool, StatesSpanEverySlotAfterResetAndGrow) {
  const PaperDecideScenario scenario(10);
  soa::StatePool pool = pool_of(scenario.states);
  const SimView view(scenario.instance, pool, scenario.now);
  ASSERT_EQ(view.states().size(), 10U);

  pool.reset(4);  // smaller: the cache must not show the old tail
  EXPECT_EQ(view.states().size(), pool.size());
  for (const JobState& s : view.states()) {
    EXPECT_FALSE(s.released);  // reset slots, not the old states
  }

  const std::int32_t slot = pool.grow();
  pool.released(slot) = 1;
  EXPECT_EQ(view.states().size(), pool.size());
  EXPECT_TRUE(view.states()[static_cast<std::size_t>(slot)].released);
  EXPECT_TRUE(view.state(slot).released);

  pool.reset(0);
  EXPECT_TRUE(view.states().empty());
  pool.grow();
  EXPECT_EQ(view.state(0).alloc, kAllocUnassigned);
  EXPECT_EQ(view.states().size(), 1U);
}

/// Forwards to a factory policy and remembers the pool its views read.
class PoolProbe final : public Policy {
 public:
  explicit PoolProbe(const std::string& name) : inner_(make_policy(name)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void reset(const Instance& instance) override { inner_->reset(instance); }
  void decide(const SimView& view, const std::vector<Event>& events,
              std::vector<Directive>& out) override {
    pool = &view.pool();
    inner_->decide(view, events, out);
  }

  const soa::StatePool* pool = nullptr;

 private:
  std::unique_ptr<Policy> inner_;
};

TEST(StatePool, RunsThatNeverReadStatesLeaveTheCacheUnsized) {
  RandomInstanceConfig cfg;
  cfg.n = 200;
  cfg.load = 0.5;
  Rng rng(7);
  const Instance instance = make_random_instance(cfg, rng);
  Instance base;
  base.platform = instance.platform;

  for (const char* name : {"greedy", "srpt", "ssf-edf", "fcfs",
                           "edge-only", "failover-srpt"}) {
    SCOPED_TRACE(name);
    for (const bool streaming : {false, true}) {
      PoolProbe probe(name);
      InstanceArrivalStream arrivals(instance);
      detail::EngineCore core;
      probe.reset(streaming ? base : instance);
      core.prepare(streaming ? base : instance,
                   streaming ? &arrivals : nullptr, probe, EngineConfig{});
      const SimResult result = core.run();
      ASSERT_EQ(result.stats.completed, instance.jobs.size());
      ASSERT_NE(probe.pool, nullptr);
      EXPECT_GT(probe.pool->size(), 0U);
      EXPECT_EQ(probe.pool->cached_slots(), 0U);
    }
  }
}

}  // namespace
}  // namespace ecs
