// Profiler & heartbeat invisibility harness.
//
// The self-profiler (obs/profiler.hpp) and the heartbeat monitor
// (obs/heartbeat.hpp) are pure observers of the engine, and this suite
// pins that claim with no tolerance to hide behind:
//
//  1. Bit-identical runs: for random instances (with outages, unannounced
//     faults and admission pressure), a run with a profiler attached must
//     equal the profiler-free run EXACTLY — completion times to the bit,
//     stats field by field, fault and admission logs entry by entry, trace
//     streams record by record, interval histories interval by interval.
//  2. Zero allocations on the null path: a warmed resident EngineCore run
//     with config.profiler == nullptr performs no heap allocation at all
//     (counting global operator new), so an unprofiled engine pays nothing
//     for the hooks existing.
//  3. The profile itself is coherent: lap counts tile the run, the report
//     merges exactly, the JSON/Perfetto/metrics exports are well-formed.
//  4. Heartbeats never land on stdout, and the engine emits the
//     elided_rounds / peak_tracked gauges whenever metrics are attached
//     (no profiler needed).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "obs/heartbeat.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "sched/factory.hpp"
#include "sim/batch.hpp"
#include "sim/engine.hpp"
#include "sim/engine_core.hpp"
#include "util/rng.hpp"
#include "workloads/outages.hpp"
#include "workloads/random_instances.hpp"

// ---------------------------------------------------------------------------
// Counting allocator: every global allocation in this binary bumps the
// counter. The zero-allocation test measures the delta across a warmed
// engine run; everything else (gtest bookkeeping, setup) happens outside
// the measured window and is unaffected.
namespace {
std::atomic<std::size_t> g_alloc_calls{0};

void* counted_alloc(std::size_t size) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  const std::size_t rounded = (size + align - 1) / align * align;
  void* p = std::aligned_alloc(align, rounded == 0 ? align : rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
// ---------------------------------------------------------------------------

namespace ecs {
namespace {

/// The randomized scenario of the equivalence suites: outage calendars on
/// odd seeds, unannounced fault plans on most, varying load and CCR.
Instance make_instance(int seed, FaultPlan* faults) {
  RandomInstanceConfig cfg;
  cfg.n = 150;
  cfg.cloud_count = 3;
  cfg.slow_edges = 2;
  cfg.fast_edges = 2;
  cfg.load = seed % 2 == 0 ? 0.1 : 0.3;
  cfg.ccr = seed % 3 == 0 ? 5.0 : 1.0;
  Rng rng(1000 + seed);
  Instance instance = make_random_instance(cfg, rng);

  if (seed % 2 == 1) {
    OutageConfig outage_cfg;
    outage_cfg.fraction = 0.1;
    outage_cfg.mean_duration = 10.0;
    outage_cfg.horizon = 500.0;
    Rng outage_rng(2000 + seed);
    instance.cloud_outages =
        make_cloud_outages(cfg.cloud_count, outage_cfg, outage_rng);
  }

  if (seed % 3 != 0) {
    FaultConfig fault_cfg;
    fault_cfg.crash_rate = 0.002;
    fault_cfg.mean_repair = 20.0;
    fault_cfg.loss_rate = 0.005;
    fault_cfg.horizon = 500.0;
    Rng fault_rng(3000 + seed);
    *faults = make_fault_plan(cfg.cloud_count, fault_cfg, fault_rng);
  }
  return instance;
}

struct Variant {
  SimResult result;
  std::vector<obs::TraceRecord> trace;
};

/// One run with everything recorded; `profiler` is the only difference
/// between the compared variants. Admission pressure on half the seeds so
/// the admission log is exercised too.
Variant run_variant(const Instance& instance, const std::string& policy_name,
                    const FaultPlan& faults, bool admission,
                    obs::EngineProfiler* profiler) {
  const auto policy = make_policy(policy_name);
  EngineConfig config;
  config.record_schedule = true;
  config.faults = faults;
  if (admission) config.admission.max_live = 24;
  config.profiler = profiler;
  obs::MemoryTraceSink sink;
  config.trace = &sink;
  Variant v;
  v.result = simulate(instance, *policy, config);
  v.trace = sink.records();
  return v;
}

void expect_same_run_record(const RunRecord& a, const RunRecord& b) {
  EXPECT_EQ(a.alloc, b.alloc);
  EXPECT_EQ(a.exec, b.exec);
  EXPECT_EQ(a.uplink, b.uplink);
  EXPECT_EQ(a.downlink, b.downlink);
}

void expect_same_variant(const Variant& a, const Variant& b) {
  // Completions exact to the bit.
  EXPECT_EQ(a.result.completions, b.result.completions);

  // Stats field by field (policy_seconds excluded: wall time).
  const SimStats& sa = a.result.stats;
  const SimStats& sb = b.result.stats;
  EXPECT_EQ(sa.events, sb.events);
  EXPECT_EQ(sa.decisions, sb.decisions);
  EXPECT_EQ(sa.reassignments, sb.reassignments);
  EXPECT_EQ(sa.fault_aborts, sb.fault_aborts);
  EXPECT_EQ(sa.message_losses, sb.message_losses);
  EXPECT_EQ(sa.preemptions, sb.preemptions);
  EXPECT_EQ(sa.max_queue_depth, sb.max_queue_depth);
  EXPECT_EQ(sa.peak_live, sb.peak_live);

  // Fault log entry by entry.
  ASSERT_EQ(a.result.fault_log.size(), b.result.fault_log.size());
  for (std::size_t i = 0; i < a.result.fault_log.size(); ++i) {
    EXPECT_EQ(a.result.fault_log[i].kind, b.result.fault_log[i].kind);
    EXPECT_EQ(a.result.fault_log[i].job, b.result.fault_log[i].job);
    EXPECT_EQ(a.result.fault_log[i].time, b.result.fault_log[i].time);
  }

  // Admission log entry by entry.
  ASSERT_EQ(a.result.admission_log.size(), b.result.admission_log.size());
  for (std::size_t i = 0; i < a.result.admission_log.size(); ++i) {
    EXPECT_EQ(a.result.admission_log[i].job, b.result.admission_log[i].job);
    EXPECT_EQ(a.result.admission_log[i].time, b.result.admission_log[i].time);
    EXPECT_EQ(a.result.admission_log[i].shed, b.result.admission_log[i].shed);
  }

  // Trace streams record by record (TraceRecord == is defaulted).
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i], b.trace[i]) << "trace record " << i;
  }

  // Interval histories.
  ASSERT_EQ(a.result.schedule.job_count(), b.result.schedule.job_count());
  for (int id = 0; id < a.result.schedule.job_count(); ++id) {
    expect_same_run_record(a.result.schedule.job(id).final_run,
                           b.result.schedule.job(id).final_run);
    ASSERT_EQ(a.result.schedule.job(id).abandoned.size(),
              b.result.schedule.job(id).abandoned.size());
    for (std::size_t r = 0; r < a.result.schedule.job(id).abandoned.size();
         ++r) {
      expect_same_run_record(a.result.schedule.job(id).abandoned[r],
                             b.result.schedule.job(id).abandoned[r]);
    }
  }
}

// --- 1. A profiled run is bit-identical to an unprofiled one. -------------

TEST(ProfilerInvisibility, ProfiledRunIsBitIdentical) {
  for (const std::string policy : {"srpt", "greedy", "fcfs"}) {
    for (int seed = 0; seed < 6; ++seed) {
      FaultPlan faults;
      const Instance instance = make_instance(seed, &faults);
      const bool admission = seed % 2 == 0;
      obs::EngineProfiler profiler;
      const Variant with =
          run_variant(instance, policy, faults, admission, &profiler);
      const Variant without =
          run_variant(instance, policy, faults, admission, nullptr);
      SCOPED_TRACE(policy + " seed " + std::to_string(seed));
      expect_same_variant(with, without);
      // And the profiler did observe the run it rode along on.
      EXPECT_EQ(profiler.report().events, with.result.stats.events);
    }
  }
}

// --- 2. Null path: a warmed resident core allocates nothing. --------------

TEST(ProfilerInvisibility, NullProfilerPathAllocatesNothing) {
  FaultPlan faults;  // no faults: the cleanest steady-state run
  const Instance instance = make_instance(0, &faults);
  const auto policy = make_policy("srpt");
  EngineConfig config;
  config.record_schedule = false;
  config.time_policy = false;
  config.profiler = nullptr;

  detail::EngineCore core;
  SimResult result;
  // Warm-up: every buffer reaches capacity.
  policy->reset(instance);
  core.prepare(instance, nullptr, *policy, config);
  while (!core.step_rounds(0)) {
  }
  core.finish_into(result);

  // One full steady-state run, stage by stage. prepare() carries a single
  // pre-existing allocation (it predates the profiler; the engine reuse
  // contract has never claimed an alloc-free prepare) — the invariant the
  // profiler adds is that the HOT stages stay at exactly zero and prepare
  // stays at its historical count, i.e. the null hooks cost no heap at all.
  const auto measure = [&](auto&& fn) {
    const std::size_t before = g_alloc_calls.load(std::memory_order_relaxed);
    fn();
    return g_alloc_calls.load(std::memory_order_relaxed) - before;
  };
  const std::size_t prepare_a = measure([&] {
    policy->reset(instance);
    core.prepare(instance, nullptr, *policy, config);
  });
  EXPECT_EQ(measure([&] {
              while (!core.step_rounds(0)) {
              }
            }),
            0u)
      << "null-profiler stepping must not touch the heap";
  EXPECT_EQ(measure([&] { core.finish_into(result); }), 0u)
      << "null-profiler finish must not touch the heap";

  // And prepare's count is stable run over run: the null profiler hook
  // contributes nothing there either.
  const std::size_t prepare_b = measure([&] {
    policy->reset(instance);
    core.prepare(instance, nullptr, *policy, config);
  });
  while (!core.step_rounds(0)) {
  }
  core.finish_into(result);
  EXPECT_EQ(prepare_a, prepare_b);
  EXPECT_LE(prepare_b, 1u) << "prepare() grew new steady-state allocations";
}

// --- 3. The profile itself is coherent. -----------------------------------

TEST(ProfilerReport, LapCountsTileTheRun) {
  FaultPlan faults;
  const Instance instance = make_instance(1, &faults);
  const auto policy = make_policy("srpt");
  obs::EngineProfiler profiler;
  EngineConfig config;
  config.faults = faults;
  config.profiler = &profiler;
  const SimResult result = simulate(instance, *policy, config);

  const obs::ProfileReport report = profiler.report();
  EXPECT_EQ(report.runs, 1u);
  EXPECT_EQ(report.events, result.stats.events);
  EXPECT_EQ(report.decisions, result.stats.decisions);
  EXPECT_EQ(report.peak_live, result.stats.peak_live);
  EXPECT_LE(report.elided_rounds, report.rounds);
  EXPECT_GT(report.rounds, 0u);
  EXPECT_GT(report.total_ns(), 0.0);
  EXPECT_GT(report.tick_ns, 0.0);

  using obs::EnginePhase;
  const auto count = [&](EnginePhase p) {
    return report.phases[static_cast<std::size_t>(p)].count;
  };
  // Once per run.
  EXPECT_EQ(count(EnginePhase::kPrepare), 1u);
  EXPECT_EQ(count(EnginePhase::kFinish), 1u);
  // Once per decision round — rounds is defined as the kDecide lap count.
  EXPECT_EQ(count(EnginePhase::kDecide), report.rounds);
  EXPECT_EQ(count(EnginePhase::kAllocate), report.rounds);
  EXPECT_EQ(count(EnginePhase::kActivate), report.rounds);
  EXPECT_EQ(count(EnginePhase::kEmit), report.rounds);
  // The advance phases lap once per round too (the loop alternates
  // decide/advance; the final round ends the run instead of advancing).
  EXPECT_GT(count(EnginePhase::kEventScan), 0u);
  EXPECT_LE(count(EnginePhase::kEventScan), report.rounds);

  // Every decision round fed the policy's latency sketch.
  ASSERT_EQ(report.decision_ns.size(), 1u);
  EXPECT_EQ(report.decision_ns.begin()->second.count(),
            static_cast<std::uint64_t>(report.rounds));
}

TEST(ProfilerReport, MergeAddsExactly) {
  FaultPlan faults;
  const Instance instance = make_instance(2, &faults);
  obs::EngineProfiler a;
  obs::EngineProfiler b;
  for (obs::EngineProfiler* profiler : {&a, &b}) {
    const auto policy = make_policy("srpt");
    EngineConfig config;
    config.faults = faults;
    config.profiler = profiler;
    (void)simulate(instance, *policy, config);
  }
  obs::ProfileReport ra = a.report();
  const obs::ProfileReport rb = b.report();
  const std::uint64_t rounds = ra.rounds;
  const std::uint64_t sketch_count = ra.decision_ns.begin()->second.count();
  ra.merge(rb);
  EXPECT_EQ(ra.runs, 2u);
  EXPECT_EQ(ra.rounds, rounds + rb.rounds);
  EXPECT_EQ(ra.events, 2 * rb.events);  // identical deterministic runs
  ASSERT_EQ(ra.decision_ns.size(), 1u);
  EXPECT_EQ(ra.decision_ns.begin()->second.count(),
            sketch_count + rb.decision_ns.begin()->second.count());

  // Merging an empty report is a no-op on the counts.
  const std::uint64_t merged_rounds = ra.rounds;
  ra.merge(obs::ProfileReport{});
  EXPECT_EQ(ra.rounds, merged_rounds);
}

TEST(ProfilerReport, ExportsAreWellFormed) {
  FaultPlan faults;
  const Instance instance = make_instance(3, &faults);
  const auto policy = make_policy("srpt");
  obs::EngineProfiler profiler;
  EngineConfig config;
  config.faults = faults;
  config.profiler = &profiler;
  (void)simulate(instance, *policy, config);
  const obs::ProfileReport report = profiler.report();

  std::ostringstream json;
  report.write_json(json);
  const obs::json::Value doc = obs::json::parse(json.str());
  EXPECT_EQ(doc.at("rounds").as_int(),
            static_cast<std::int64_t>(report.rounds));
  ASSERT_NE(doc.find("phases"), nullptr);
  EXPECT_EQ(doc.at("phases").object.size(), obs::kEnginePhaseCount);
  ASSERT_NE(doc.find("decision_ns"), nullptr);

  std::ostringstream perfetto;
  report.write_perfetto(perfetto);
  const obs::json::Value trace = obs::json::parse(perfetto.str());
  ASSERT_NE(trace.find("traceEvents"), nullptr);
  EXPECT_GT(trace.at("traceEvents").array.size(), obs::kEnginePhaseCount);

  obs::MetricsRegistry registry;
  report.to_metrics(registry);
  std::ostringstream metrics;
  registry.write_json(metrics);
  EXPECT_NE(metrics.str().find("engine.profile.phase.decide"),
            std::string::npos);
  EXPECT_NE(metrics.str().find("engine.profile.rounds"), std::string::npos);
}

TEST(ProfilerReport, BatchDriverMergesPerSlotProfiles) {
  FaultPlan faults;
  const Instance instance = make_instance(4, &faults);
  BatchOptions options;
  options.threads = 2;
  options.profile = true;
  BatchEngine batch(
      1, [](std::size_t) { return make_policy("srpt"); }, options);
  const std::size_t worlds = 6;
  std::vector<std::uint64_t> events(worlds, 0);
  batch.run(
      worlds,
      [&](std::size_t, Instance& world_instance, WorldSetup& setup) {
        world_instance = instance;
        setup.policy = 0;
        setup.config.faults = faults;
        setup.config.record_schedule = false;
        setup.config.time_policy = false;
      },
      [&](std::size_t index, const Instance&, SimResult& result, double) {
        events[index] = result.stats.events;
      });
  const obs::ProfileReport report = batch.profile_report();
  EXPECT_EQ(report.runs, worlds);
  std::uint64_t total_events = 0;
  for (const std::uint64_t e : events) total_events += e;
  EXPECT_EQ(report.events, total_events);
  ASSERT_EQ(report.decision_ns.size(), 1u);
}

// --- 4. Heartbeats: stderr-only, coherent counters. -----------------------

TEST(Heartbeat, EmitsTextAndJsonl) {
  std::ostringstream text;
  std::ostringstream jsonl;
  obs::HeartbeatMonitor monitor(0.0, &text, &jsonl);
  monitor.add_total_worlds(4);
  for (int i = 0; i < 1024; ++i) {
    monitor.tick(static_cast<double>(i), static_cast<std::uint64_t>(2 * i),
                 7, 1);
  }
  monitor.world_done();
  monitor.world_done();
  monitor.flush();
  EXPECT_GE(monitor.beats(), 3u);
  EXPECT_NE(text.str().find("[heartbeat"), std::string::npos);
  EXPECT_NE(text.str().find("worlds=2/4"), std::string::npos);

  // Every JSONL line is one well-formed object with the documented keys.
  std::istringstream lines(jsonl.str());
  std::string line;
  std::size_t parsed = 0;
  while (std::getline(lines, line)) {
    const obs::json::Value doc = obs::json::parse(line);
    EXPECT_NE(doc.find("wall_s"), nullptr);
    EXPECT_NE(doc.find("events"), nullptr);
    EXPECT_NE(doc.find("worlds_done"), nullptr);
    ++parsed;
  }
  EXPECT_EQ(parsed, monitor.beats());
}

TEST(Heartbeat, NeverWritesToStdout) {
  FaultPlan faults;
  const Instance instance = make_instance(0, &faults);
  const auto policy = make_policy("srpt");
  obs::HeartbeatMonitor monitor(0.0);  // default stream: stderr
  EngineConfig config;
  config.faults = faults;
  config.heartbeat = &monitor;

  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  (void)simulate(instance, *policy, config);
  monitor.flush();  // guarantees at least one beat even on a short run
  const std::string out = testing::internal::GetCapturedStdout();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_TRUE(out.empty()) << "heartbeat leaked onto stdout: " << out;
  EXPECT_NE(err.find("[heartbeat"), std::string::npos);
  EXPECT_GE(monitor.beats(), 1u);
}

// --- 5. Engine gauges surface without a profiler (metrics alone). ---------

TEST(EngineMetrics, ElidedRoundsAndPeakTrackedGauges) {
  FaultPlan faults;
  const Instance instance = make_instance(5, &faults);
  const auto policy = make_policy("srpt");
  obs::MetricsRegistry registry;
  EngineConfig config;
  config.faults = faults;
  config.metrics = &registry;
  (void)simulate(instance, *policy, config);

  std::ostringstream json;
  registry.write_json(json);
  EXPECT_NE(json.str().find("engine.elided_rounds"), std::string::npos);
  EXPECT_NE(json.str().find("engine.peak_tracked"), std::string::npos);
  EXPECT_NE(json.str().find("engine.peak_live"), std::string::npos);
}

}  // namespace
}  // namespace ecs
