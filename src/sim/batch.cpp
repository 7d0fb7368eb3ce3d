#include "sim/batch.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <stdexcept>

#include "obs/heartbeat.hpp"
#include "obs/profiler.hpp"
#include "util/parallel.hpp"
#include "sim/engine_core.hpp"
#include "sim/policy.hpp"

namespace ecs {

namespace {
constexpr std::size_t kIdle = static_cast<std::size_t>(-1);
}  // namespace

/// One resident world slot of the shared pool: every buffer below survives
/// recycling, so a steady-state world launch allocates nothing.
struct BatchEngine::World {
  detail::EngineCore core;
  Instance instance;
  SimResult result;
  WorldSetup setup;
  /// Lazily built policy table. Owned by the SLOT, not by a thread: a
  /// policy object is stateful across decide() calls, and the pool steps
  /// its resident worlds in interleaved visits from any worker — two
  /// worlds sharing one policy instance would corrupt each other the
  /// moment both pick the same table entry.
  std::vector<std::unique_ptr<Policy>> policies;
  /// Slot-owned profiler (BatchOptions::profile): single-threaded like
  /// the policies above (one visitor at a time), accumulating across every
  /// run the slot executes; profile_report() merges the slots.
  std::unique_ptr<obs::EngineProfiler> profiler;
  // Claim state. `index` and `claimed` change only under the run's pool
  // mutex; the rest is written by the claim holder alone, and the mutex
  // orders those writes before the next claim reads them.
  std::size_t index = kIdle;  ///< queued-world index, kIdle when free
  bool claimed = false;       ///< a worker is visiting this slot
  bool launched = false;      ///< the index's world has been prepared
  double attained = 0.0;      ///< seconds of visits this world has had
  std::chrono::steady_clock::time_point t0;
};

BatchEngine::BatchEngine(std::size_t policy_count, PolicyFactory factory,
                         BatchOptions options)
    : policy_count_(policy_count),
      factory_(std::move(factory)),
      options_(options) {
  if (!factory_) {
    throw std::invalid_argument("BatchEngine: a policy factory is required");
  }
}

BatchEngine::~BatchEngine() = default;

void BatchEngine::launch(World& world, const WorldFn& make_world) {
  world.setup = WorldSetup{};
  make_world(world.index, world.instance, world.setup);
  if (options_.profile) {
    if (world.profiler == nullptr) {
      world.profiler = std::make_unique<obs::EngineProfiler>();
    }
    // The slot's profiler wins over anything make_world set: slots step
    // concurrently and a caller-shared profiler would race.
    world.setup.config.profiler = world.profiler.get();
  }
  if (world.setup.policy >= policy_count_) {
    throw std::out_of_range("BatchEngine: world setup selected policy " +
                            std::to_string(world.setup.policy) +
                            " of a table of " +
                            std::to_string(policy_count_));
  }
  std::unique_ptr<Policy>& policy = world.policies[world.setup.policy];
  if (policy == nullptr) policy = factory_(world.setup.policy);
  world.t0 = std::chrono::steady_clock::now();
  // Same order as simulate(): reset, then prepare, then step.
  policy->reset(world.instance);
  world.core.prepare(world.instance, nullptr, *policy, world.setup.config);
  world.launched = true;
}

void BatchEngine::run(std::size_t world_count, const WorldFn& make_world,
                      const WorldResultFn& on_result) {
  if (world_count == 0) return;
  if (options_.heartbeat != nullptr) {
    options_.heartbeat->add_total_worlds(world_count);
  }
  const unsigned threads =
      options_.threads != 0 ? options_.threads : default_thread_count();
  const std::size_t workers =
      std::min<std::size_t>(std::max(threads, 1u), world_count);
  const std::size_t slots =
      workers * std::max<std::size_t>(options_.worlds_per_thread, 1);
  while (worlds_.size() < slots) {
    worlds_.push_back(std::make_unique<World>());
  }
  // A previous run() that aborted on an exception may have left worlds
  // mid-flight; their cores re-prepare from scratch, so just mark free.
  for (auto& world : worlds_) {
    world->policies.resize(policy_count_);
    world->index = kIdle;
    world->claimed = false;
    world->launched = false;
  }
  const std::uint64_t rounds =
      std::max<std::uint64_t>(options_.rounds_per_visit, 1);

  // Pool state. One mutex guards every claim and release, which also
  // orders a migrating world's previous visit before its next one.
  std::mutex mutex;
  std::size_t next_world = 0;  // next queued world to launch
  std::size_t cursor = 0;      // where the next claim scan starts
  bool aborted = false;        // the first exception stops further claims

  // Claims a free slot for the next queued world or, with none, the
  // unclaimed live world with the least attained visit time (ties go
  // round-robin from the slot after the last claim). Least attained
  // service finishes short worlds first, so queued worlds launch sooner
  // and the long ones share the threads to the end. Null when nothing is
  // claimable: every live world is then claimed (there are at least as
  // many slots as workers) and the queue is empty, so the caller can exit
  // without ever leaving a waiting world behind.
  const auto claim = [&]() -> World* {
    const std::lock_guard<std::mutex> lock(mutex);
    if (aborted) return nullptr;
    World* best = nullptr;
    std::size_t best_slot = 0;
    for (std::size_t i = 0; i < slots; ++i) {
      const std::size_t s = (cursor + i) % slots;
      World& world = *worlds_[s];
      if (world.claimed) continue;
      if (world.index == kIdle) {
        if (next_world == world_count) continue;
        world.index = next_world++;
        world.attained = 0.0;
        best = &world;
        best_slot = s;
        break;
      }
      if (best == nullptr || world.attained < best->attained) {
        best = &world;
        best_slot = s;
      }
    }
    if (best == nullptr) return nullptr;
    best->claimed = true;
    cursor = best_slot + 1;
    return best;
  };
  const auto release = [&](World& world, bool done) {
    const std::lock_guard<std::mutex> lock(mutex);
    world.claimed = false;
    if (done) {
      world.index = kIdle;
      world.launched = false;
    }
  };

  parallel_for(
      workers,
      [&](std::size_t) {
        while (World* world = claim()) {
          try {
            if (!world->launched) launch(*world, make_world);
            const auto visit = std::chrono::steady_clock::now();
            const bool finished = world->core.step_rounds(rounds);
            world->attained += std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - visit)
                                   .count();
            if (!finished) {
              release(*world, false);
              continue;
            }
            world->core.finish_into(world->result);
            const double wall = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() -
                                    world->t0)
                                    .count();
            on_result(world->index, world->instance, world->result, wall);
            release(*world, true);
          } catch (...) {
            // The next run() re-prepares every slot, so only the claim
            // needs undoing.
            const std::lock_guard<std::mutex> lock(mutex);
            aborted = true;
            world->claimed = false;
            throw;
          }
          if (options_.heartbeat != nullptr) {
            options_.heartbeat->world_done();
          }
        }
      },
      static_cast<unsigned>(workers));
}

obs::ProfileReport BatchEngine::profile_report() const {
  obs::ProfileReport merged;
  for (const auto& world : worlds_) {
    if (world->profiler != nullptr) merged.merge(world->profiler->report());
  }
  return merged;
}

}  // namespace ecs
