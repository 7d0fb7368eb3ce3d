#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/metrics.hpp"
#include "core/validate.hpp"
#include "exp/sweep.hpp"
#include "layers.hpp"
#include "sched/factory.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t ns_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

/// Exact text of a double: C99 hex-float, so digests compare bit for bit.
std::string hexf(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

std::string u64(double x) {
  return std::to_string(static_cast<std::uint64_t>(x));
}

std::string world_key(std::size_t round, const std::string& label, int rep,
                      const std::string& policy) {
  return "r" + std::to_string(round) + "/" + label + "/rep" +
         std::to_string(rep) + "/" + policy;
}

std::string stream_world_key(std::size_t segment, const std::string& policy) {
  return "segment" + std::to_string(segment) + "/" + policy;
}

ecs::InstanceFactory factory_for(const ecs::RandomInstanceConfig& cfg) {
  return [cfg](std::uint64_t seed) {
    ecs::Rng rng(seed);
    return ecs::make_random_instance(cfg, rng);
  };
}

ecs::EngineConfig stream_engine_config(const WorkloadSpec& spec) {
  ecs::EngineConfig config;
  config.record_schedule = false;
  config.record_completions = false;
  config.record_admission = false;
  config.time_policy = false;
  config.admission = spec.admission;
  return config;
}

/// Streaming segment s draws its arrivals from derive_seed(seed, s).
ecs::ArrivalConfig stream_segment_config(const WorkloadSpec& spec,
                                         std::uint64_t seed,
                                         std::size_t segment) {
  ecs::ArrivalConfig config = spec.stream;
  config.seed = ecs::derive_seed(seed, segment);
  return config;
}

/// The streaming workload's platform: the paper's, with no jobs.
ecs::Instance stream_base() {
  ecs::Instance base;
  base.platform = ecs::make_random_platform(ecs::RandomInstanceConfig{});
  return base;
}

/// Digest of one aggregate produced by run_sweep_point (one policy at one
/// point over the round's replications).
std::string aggregate_digest(const ecs::PolicyAggregate& agg) {
  return "reps=" + std::to_string(agg.max_stretch.count()) +
         " max_mean=" + hexf(agg.max_stretch.mean()) +
         " max_max=" + hexf(agg.max_stretch.max()) +
         " mean_mean=" + hexf(agg.mean_stretch.mean()) +
         " events=" + u64(agg.events.sum()) +
         " reassign=" + u64(agg.reassignments.sum());
}

std::string sweep_world_digest(const ecs::ScheduleMetrics& metrics,
                               const ecs::SimStats& stats) {
  return "max=" + hexf(metrics.max_stretch) +
         " mean=" + hexf(metrics.mean_stretch) +
         " events=" + std::to_string(stats.events) +
         " rounds=" + std::to_string(stats.decisions) +
         " reassign=" + std::to_string(stats.reassignments);
}

std::string stream_world_digest(const ecs::SimStats& stats) {
  return "max=" + hexf(stats.max_stretch) +
         " events=" + std::to_string(stats.events) +
         " rounds=" + std::to_string(stats.decisions) +
         " reassign=" + std::to_string(stats.reassignments) +
         " admitted=" + std::to_string(stats.admitted) +
         " refused=" + std::to_string(stats.rejections + stats.sheds) +
         " completed=" + std::to_string(stats.completed) +
         " peak_live=" + std::to_string(stats.peak_live);
}

/// A digest value plus the worlds that fail when it is wrong.
struct Entry {
  std::string value;
  std::vector<std::string> worlds;
};

/// Failed-world bookkeeping: a world counts once however many checks it
/// fails; only the first few causes are kept verbatim.
class Failures {
 public:
  void fail(const std::vector<std::string>& worlds, const std::string& why) {
    for (const std::string& w : worlds) failed_.insert(w);
    if (problems_.size() < kMaxProblems) {
      problems_.push_back(why);
    } else {
      ++dropped_;
    }
  }
  [[nodiscard]] std::uint64_t count() const { return failed_.size(); }
  [[nodiscard]] std::vector<std::string> problems() const {
    std::vector<std::string> out = problems_;
    if (dropped_ > 0) {
      out.push_back("... and " + std::to_string(dropped_) + " more");
    }
    return out;
  }

 private:
  static constexpr std::size_t kMaxProblems = 20;
  std::set<std::string> failed_;
  std::vector<std::string> problems_;
  std::size_t dropped_ = 0;
};

/// Checks the round-0 digests against the reference, when it was made at
/// this seed. A key the reference lacks is a failure too (stale reference).
void check_reference(const std::map<std::string, Entry>& produced,
                     const Options& options, Failures& failures) {
  if (options.reference == nullptr ||
      options.reference->seed != options.seed) {
    return;
  }
  const Digests& ref = options.reference->entries;
  for (const auto& [key, entry] : produced) {
    const auto it = ref.find(key);
    if (it == ref.end()) {
      failures.fail(entry.worlds, key + ": no reference digest");
    } else if (it->second != entry.value) {
      failures.fail(entry.worlds, key + ": digest " + entry.value +
                                      " != reference " + it->second);
    }
  }
}

/// Everything the traced replay measures, summed over its worlds.
struct LayerTotals {
  std::uint64_t instances = 0;
  std::uint64_t generated_jobs = 0;
  std::uint64_t gen_ns = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t arrival_ns = 0;
  std::uint64_t sim_ns = 0;  ///< simulate()/simulate_stream() wall
  std::uint64_t events = 0;
  std::uint64_t rounds = 0;
  std::uint64_t reassignments = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t admitted = 0;
  std::uint64_t refused = 0;
  std::uint64_t peak_live = 0;
  std::uint64_t max_queue_depth = 0;
  std::uint64_t peak_tracked = 0;
  DecideStats decide;
  std::map<std::string, DecideStats> per_policy;
  std::uint64_t validated = 0;
  std::uint64_t violations = 0;
  std::uint64_t validate_ns = 0;
  std::uint64_t metrics_ns = 0;

  void add_stats(const ecs::SimStats& s) {
    events += s.events;
    rounds += s.decisions;
    reassignments += s.reassignments;
    preemptions += s.preemptions;
    admitted += s.admitted;
    refused += s.rejections + s.sheds;
    peak_live = std::max(peak_live, s.peak_live);
    max_queue_depth = std::max(max_queue_depth, s.max_queue_depth);
    peak_tracked = std::max(peak_tracked, s.peak_tracked);
  }
  void add_decide(const std::string& policy, const DecideStats& d) {
    decide.merge(d);
    per_policy[policy].merge(d);
  }
};

/// What the timed run's sweep driver reported, for the exp layer.
struct DriverTotals {
  std::uint64_t points = 0;
  double point_s = 0.0;        ///< sum of run_sweep_point walls
  double world_s = 0.0;        ///< sum of PolicyAggregate::wall_seconds
  double thread_point_s = 0.0; ///< sum of threads x point wall
};

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// One timed run plus (in trace mode) its replay.
class Runner {
 public:
  Runner(const WorkloadSpec& spec, const Options& options)
      : spec_(spec), options_(options) {}

  Outcome run() {
    if (spec_.streaming) {
      timed_stream();
      if (options_.trace) replay_stream();
    } else {
      timed_sweep();
      if (options_.trace) replay_sweep();
    }
    check_reference(round0_, options_, failures_);
    return finish();
  }

 private:
  // ---- timed run ---------------------------------------------------------

  void timed_sweep() {
    const int reps = spec_.replications;
    const std::size_t n_policies = spec_.policies.size();
    const Clock::time_point start = Clock::now();
    outcome_.first_dispatch_ns = steady_ns();
    for (std::size_t round = 0; round == 0 || seconds_since(start) <
                                                  options_.seconds;
         ++round) {
      const Clock::time_point round_start = Clock::now();
      std::uint64_t round_jobs = 0;
      const std::uint64_t base = ecs::derive_seed(options_.seed, round);
      for (std::size_t p = 0; p < spec_.points.size(); ++p) {
        const SweepPointSpec& point = spec_.points[p];
        ecs::SweepOptions sweep;
        sweep.replications = reps;
        sweep.base_seed = base;
        sweep.threads = options_.threads;
        sweep.point_index = static_cast<int>(p);
        std::vector<std::string> point_worlds;
        for (int rep = 0; rep < reps; ++rep) {
          for (const std::string& policy : spec_.policies) {
            point_worlds.push_back(world_key(round, point.label, rep, policy));
          }
        }
        outcome_.attempted += point_worlds.size();
        round_jobs += static_cast<std::uint64_t>(point.instance.n) *
                      point_worlds.size();
        const Clock::time_point point_start = Clock::now();
        try {
          const ecs::SweepPointResult result = ecs::run_sweep_point(
              point.label, factory_for(point.instance), spec_.policies,
              sweep);
          const double wall = seconds_since(point_start);
          driver_.points += 1;
          driver_.point_s += wall;
          driver_.thread_point_s += wall * options_.threads;
          for (std::size_t k = 0; k < n_policies; ++k) {
            const ecs::PolicyAggregate& agg = result.per_policy[k];
            driver_.world_s += agg.wall_seconds.sum();
            Entry entry{aggregate_digest(agg), {}};
            for (int rep = 0; rep < reps; ++rep) {
              entry.worlds.push_back(
                  world_key(round, point.label, rep, spec_.policies[k]));
            }
            const std::string key = "agg/r" + std::to_string(round) + "/" +
                                    point.label + "/" + spec_.policies[k];
            if (round == 0) round0_[key] = entry;
            timed_[key] = std::move(entry);
          }
          if (spec_.check_ssf_edf_best) check_ordering(result, point_worlds,
                                                       round, point.label);
        } catch (const std::exception& e) {
          failures_.fail(point_worlds, "round " + std::to_string(round) +
                                           " point " + point.label +
                                           ": " + e.what());
        }
      }
      timed_rates_.push_back(per(static_cast<double>(round_jobs),
                                 seconds_since(round_start)));
      outcome_.rounds = round + 1;
    }
    outcome_.peak_rss_mib = peak_rss_mib();
  }

  /// The paper's claim on its heavy points: SSF-EDF has the lowest mean
  /// max-stretch of the three online heuristics.
  void check_ordering(const ecs::SweepPointResult& result,
                      const std::vector<std::string>& point_worlds,
                      std::size_t round, const std::string& label) {
    const double ssf = result.policy("ssf-edf").max_stretch.mean();
    for (const ecs::PolicyAggregate& agg : result.per_policy) {
      if (agg.policy != "ssf-edf" && !(ssf < agg.max_stretch.mean())) {
        failures_.fail(point_worlds,
                       "round " + std::to_string(round) + " point " + label +
                           ": ssf-edf mean max-stretch " + hexf(ssf) +
                           " is not below " + agg.policy + "'s " +
                           hexf(agg.max_stretch.mean()));
      }
    }
  }

  /// Streaming rounds run `threads` independent segments side by side;
  /// segment s of the run is round * threads + k.
  void timed_stream() {
    const ecs::Instance base = stream_base();
    const ecs::EngineConfig config = stream_engine_config(spec_);
    const std::string& policy_name = spec_.policies.front();
    const std::size_t per_round = options_.threads;
    struct Segment {
      ecs::SimStats stats;
      std::string error;
    };
    std::vector<Segment> segments(per_round);
    const Clock::time_point start = Clock::now();
    outcome_.first_dispatch_ns = steady_ns();
    for (std::size_t round = 0; round == 0 || seconds_since(start) <
                                                  options_.seconds;
         ++round) {
      const Clock::time_point round_start = Clock::now();
      ecs::parallel_for(
          per_round,
          [&](std::size_t k) {
            Segment& segment = segments[k];
            segment = Segment{};
            try {
              const auto arrivals = ecs::make_arrival_stream(
                  stream_segment_config(spec_, options_.seed,
                                        round * per_round + k));
              const auto policy = ecs::make_policy(policy_name);
              segment.stats =
                  ecs::simulate_stream(base, *arrivals, *policy, config).stats;
            } catch (const std::exception& e) {
              segment.error = e.what();
            }
          },
          options_.threads);
      timed_rates_.push_back(
          per(static_cast<double>(per_round * spec_.stream.n),
              seconds_since(round_start)));
      for (std::size_t k = 0; k < per_round; ++k) {
        const std::string world =
            stream_world_key(round * per_round + k, policy_name);
        outcome_.attempted += 1;
        if (!segments[k].error.empty()) {
          failures_.fail({world}, world + ": " + segments[k].error);
          continue;
        }
        check_stream(segments[k].stats, spec_.stream.n, world);
        Entry entry{stream_world_digest(segments[k].stats), {world}};
        const std::string key = "world/" + world;
        if (round == 0) round0_[key] = entry;
        timed_[key] = std::move(entry);
      }
      outcome_.rounds = round + 1;
    }
    outcome_.peak_rss_mib = peak_rss_mib();
  }

  /// Conservation and overload invariants of one streaming segment.
  void check_stream(const ecs::SimStats& s, std::int64_t n,
                    const std::string& world) {
    const std::uint64_t refused = s.rejections + s.sheds;
    std::string why;
    if (s.admitted + refused != static_cast<std::uint64_t>(n)) {
      why = "admitted + refused != arrivals";
    } else if (s.completed != s.admitted) {
      why = "an admitted job never completed";
    } else if (spec_.admission.max_live > 0 &&
               s.peak_live > spec_.admission.max_live) {
      why = "live set exceeded the admission cap";
    } else if (refused == 0) {
      why = "no job refused under overload";
    } else if (!(s.max_stretch >= 1.0)) {
      why = "max stretch below 1";
    }
    if (!why.empty()) failures_.fail({world}, world + ": " + why);
  }

  // ---- traced replay -----------------------------------------------------

  /// One replayed sweep world.
  struct WorldTrace {
    DecideStats decide;
    ecs::SimStats stats;
    ecs::ScheduleMetrics metrics;
    std::uint64_t jobs = 0;
    std::uint64_t gen_ns = 0;
    std::uint64_t sim_ns = 0;
    std::uint64_t validate_ns = 0;
    std::uint64_t metrics_ns = 0;
    std::uint64_t violations = 0;
    bool validated = false;
    std::string error;
  };

  /// Replays one sweep world the way run_sweep_point runs it (same seed,
  /// same recording, replication 0 validated), timing each layer call.
  static void replay_world(const ecs::InstanceFactory& factory,
                           std::uint64_t seed, bool validate,
                           const std::string& policy_name, WorldTrace& w) {
    try {
      Clock::time_point t = Clock::now();
      const ecs::Instance instance = factory(seed);
      w.gen_ns = ns_since(t);
      w.jobs = instance.jobs.size();
      const auto inner = ecs::make_policy(policy_name);
      TimedPolicy policy(*inner, w.decide);
      ecs::EngineConfig config;
      config.record_schedule = validate;
      config.time_policy = false;
      t = Clock::now();
      const ecs::SimResult result = ecs::simulate(instance, policy, config);
      w.sim_ns = ns_since(t);
      w.stats = result.stats;
      if (validate) {
        t = Clock::now();
        w.violations =
            ecs::validate_schedule(instance, result.schedule).size();
        w.validate_ns = ns_since(t);
        w.validated = true;
        t = Clock::now();
        w.metrics = ecs::compute_metrics(instance, result.schedule);
      } else {
        t = Clock::now();
        w.metrics =
            ecs::metrics_from_completions(instance, result.completions);
      }
      w.metrics_ns = ns_since(t);
    } catch (const std::exception& e) {
      w.error = e.what();
    }
  }

  void replay_sweep() {
    const int reps = spec_.replications;
    const std::size_t n_policies = spec_.policies.size();
    const std::size_t n_worlds = static_cast<std::size_t>(reps) * n_policies;
    std::vector<WorldTrace> worlds;
    for (std::size_t round = 0; round < outcome_.rounds; ++round) {
      const Clock::time_point round_start = Clock::now();
      std::uint64_t round_jobs = 0;
      const std::uint64_t base = ecs::derive_seed(options_.seed, round);
      for (std::size_t p = 0; p < spec_.points.size(); ++p) {
        const SweepPointSpec& point = spec_.points[p];
        const ecs::InstanceFactory factory = factory_for(point.instance);
        worlds.clear();
        worlds.resize(n_worlds);
        ecs::parallel_for(
            n_worlds,
            [&](std::size_t index) {
              const int rep = static_cast<int>(index / n_policies);
              const std::uint64_t seed = ecs::sweep_seed(
                  base, static_cast<int>(p), point.label, rep);
              replay_world(factory, seed, rep == 0,
                           spec_.policies[index % n_policies], worlds[index]);
            },
            options_.threads);
        // Aggregate exactly as run_sweep_point does: replication-major.
        std::vector<ecs::PolicyAggregate> aggs(n_policies);
        bool complete = true;
        for (std::size_t index = 0; index < n_worlds; ++index) {
          const int rep = static_cast<int>(index / n_policies);
          const std::string& policy_name = spec_.policies[index % n_policies];
          const WorldTrace& w = worlds[index];
          const std::string world =
              world_key(round, point.label, rep, policy_name);
          if (!w.error.empty()) {
            failures_.fail({world}, "replay " + world + ": " + w.error);
            complete = false;
            continue;
          }
          if (w.violations > 0) {
            failures_.fail({world}, "replay " + world + ": " +
                                        std::to_string(w.violations) +
                                        " validator violations");
          }
          ecs::PolicyAggregate& agg = aggs[index % n_policies];
          agg.max_stretch.add(w.metrics.max_stretch);
          agg.mean_stretch.add(w.metrics.mean_stretch);
          agg.events.add(static_cast<double>(w.stats.events));
          agg.reassignments.add(static_cast<double>(w.stats.reassignments));
          if (round == 0) {
            round0_["world/" + world] =
                Entry{sweep_world_digest(w.metrics, w.stats), {world}};
          }
          add_world(policy_name, w);
          round_jobs += w.jobs;
        }
        if (!complete) continue;
        for (std::size_t k = 0; k < n_policies; ++k) {
          const std::string key = "agg/r" + std::to_string(round) + "/" +
                                  point.label + "/" + spec_.policies[k];
          compare_with_timed(key, aggregate_digest(aggs[k]));
        }
      }
      traced_rates_.push_back(per(static_cast<double>(round_jobs),
                                  seconds_since(round_start)));
    }
  }

  void add_world(const std::string& policy, const WorldTrace& w) {
    layers_.instances += 1;
    layers_.generated_jobs += w.jobs;
    layers_.gen_ns += w.gen_ns;
    layers_.sim_ns += w.sim_ns;
    layers_.add_stats(w.stats);
    layers_.add_decide(policy, w.decide);
    layers_.validated += w.validated ? 1 : 0;
    layers_.violations += w.violations;
    layers_.validate_ns += w.validate_ns;
    layers_.metrics_ns += w.metrics_ns;
  }

  void replay_stream() {
    const ecs::Instance base = stream_base();
    const ecs::EngineConfig config = stream_engine_config(spec_);
    const std::string& policy_name = spec_.policies.front();
    const std::size_t per_round = options_.threads;
    struct SegmentTrace {
      DecideStats decide;
      ecs::SimStats stats;
      std::uint64_t sim_ns = 0;
      std::uint64_t arrivals = 0;
      std::uint64_t arrival_ns = 0;
      std::string error;
    };
    std::vector<SegmentTrace> segments;
    for (std::size_t round = 0; round < outcome_.rounds; ++round) {
      const Clock::time_point round_start = Clock::now();
      segments.clear();
      segments.resize(per_round);
      ecs::parallel_for(
          per_round,
          [&](std::size_t k) {
            SegmentTrace& segment = segments[k];
            try {
              const auto inner_arrivals = ecs::make_arrival_stream(
                  stream_segment_config(spec_, options_.seed,
                                        round * per_round + k));
              TimedArrivalStream arrivals(*inner_arrivals);
              const auto inner_policy = ecs::make_policy(policy_name);
              TimedPolicy policy(*inner_policy, segment.decide);
              const Clock::time_point t = Clock::now();
              segment.stats =
                  ecs::simulate_stream(base, arrivals, policy, config).stats;
              segment.sim_ns = ns_since(t);
              segment.arrivals = arrivals.calls();
              segment.arrival_ns = arrivals.ns();
            } catch (const std::exception& e) {
              segment.error = e.what();
            }
          },
          options_.threads);
      traced_rates_.push_back(
          per(static_cast<double>(per_round * spec_.stream.n),
              seconds_since(round_start)));
      for (std::size_t k = 0; k < per_round; ++k) {
        const SegmentTrace& segment = segments[k];
        const std::string world =
            stream_world_key(round * per_round + k, policy_name);
        if (!segment.error.empty()) {
          failures_.fail({world}, "replay " + world + ": " + segment.error);
          continue;
        }
        layers_.sim_ns += segment.sim_ns;
        layers_.instances += 1;
        layers_.arrivals += segment.arrivals;
        layers_.arrival_ns += segment.arrival_ns;
        layers_.add_stats(segment.stats);
        layers_.add_decide(policy_name, segment.decide);
        compare_with_timed("world/" + world,
                           stream_world_digest(segment.stats));
      }
    }
  }

  /// The replay must reproduce the timed run's outputs byte for byte.
  void compare_with_timed(const std::string& key, const std::string& value) {
    const auto it = timed_.find(key);
    if (it == timed_.end()) return;  // the timed point itself failed
    if (it->second.value != value) {
      failures_.fail(it->second.worlds,
                     key + ": traced replay " + value + " != timed run " +
                         it->second.value);
    }
  }

  // ---- report ------------------------------------------------------------

  /// High-water RSS of this process image. Read from VmHWM: getrusage's
  /// ru_maxrss survives execve on Linux, so it would report the launching
  /// process's peak whenever that one was larger.
  static double peak_rss_mib() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::stod(line.substr(6)) / 1024.0;  // kB
      }
    }
    throw std::runtime_error("no VmHWM line in /proc/self/status");
  }

  Outcome finish() {
    outcome_.failed = failures_.count();
    outcome_.problems = failures_.problems();
    outcome_.jobs_per_s = ecs::percentile(timed_rates_, 0.5);
    if (!traced_rates_.empty()) {
      outcome_.traced_jobs_per_s = ecs::percentile(traced_rates_, 0.5);
    }
    const double failed_frac =
        per(static_cast<double>(outcome_.failed),
            static_cast<double>(outcome_.attempted));
    outcome_.end_to_end = {
        {"jobs_per_s", outcome_.jobs_per_s, "jobs/s"},
        {"peak_rss_mib", outcome_.peak_rss_mib, "MiB"},
        {"ok_frac", 1.0 - failed_frac, "ratio"},
    };
    if (options_.trace) outcome_.per_layer = layer_metrics();
    for (const auto& [key, entry] : round0_) {
      outcome_.round0[key] = entry.value;
    }
    return std::move(outcome_);
  }

  std::vector<Metric> layer_metrics() const {
    const LayerTotals& t = layers_;
    const double ms = 1e-6;
    const double self_ns = static_cast<double>(t.sim_ns) -
                           static_cast<double>(t.decide.ns) -
                           static_cast<double>(t.arrival_ns);
    std::vector<Metric> m = {
        {"workloads.instances", static_cast<double>(t.instances), "count"},
        {"workloads.gen_ms", static_cast<double>(t.gen_ns) * ms, "ms"},
        {"workloads.gen_us_per_job",
         per(static_cast<double>(t.gen_ns) * 1e-3,
             static_cast<double>(t.generated_jobs)),
         "us"},
        {"workloads.arrival_ns_per_job",
         per(static_cast<double>(t.arrival_ns),
             static_cast<double>(t.arrivals)),
         "ns"},
        {"sim.world_ms", static_cast<double>(t.sim_ns) * ms, "ms"},
        {"sim.self_ms", self_ns * ms, "ms"},
        {"sim.self_share", per(self_ns, static_cast<double>(t.sim_ns)),
         "ratio"},
        {"sim.ns_per_event", per(self_ns, static_cast<double>(t.events)),
         "ns"},
        {"sim.events", static_cast<double>(t.events), "count"},
        {"sim.rounds", static_cast<double>(t.rounds), "count"},
        {"sim.reassignments", static_cast<double>(t.reassignments), "count"},
        {"sim.preemptions", static_cast<double>(t.preemptions), "count"},
        {"sim.peak_live", static_cast<double>(t.peak_live), "count"},
        {"sim.max_queue_depth", static_cast<double>(t.max_queue_depth),
         "count"},
        {"sim.admitted", static_cast<double>(t.admitted), "count"},
        {"sim.refused", static_cast<double>(t.refused), "count"},
        {"sim.admit_ratio",
         per(static_cast<double>(t.admitted),
             static_cast<double>(t.admitted + t.refused)),
         "ratio"},
        {"sim.peak_tracked", static_cast<double>(t.peak_tracked), "count"},
        {"sched.decide_calls", static_cast<double>(t.decide.calls), "count"},
        {"sched.decide_ms", static_cast<double>(t.decide.ns) * ms, "ms"},
        {"sched.decide_share",
         per(static_cast<double>(t.decide.ns), static_cast<double>(t.sim_ns)),
         "ratio"},
        {"sched.decide_us_p50", t.decide.latency_us.quantile(0.50), "us"},
        {"sched.decide_us_p99", t.decide.latency_us.quantile(0.99), "us"},
        {"sched.live_mean",
         per(static_cast<double>(t.decide.live_sum),
             static_cast<double>(t.decide.calls)),
         "count"},
        {"sched.directives", static_cast<double>(t.decide.directives),
         "count"},
    };
    for (const std::string& policy : ecs::paper_policy_names()) {
      const auto it = t.per_policy.find(policy);
      const DecideStats empty;
      const DecideStats& d = it == t.per_policy.end() ? empty : it->second;
      m.push_back({"sched." + policy + ".decide_ms",
                   static_cast<double>(d.ns) * ms, "ms"});
      m.push_back({"sched." + policy + ".decide_us_p99",
                   d.latency_us.quantile(0.99), "us"});
    }
    m.push_back({"core.validated_worlds", static_cast<double>(t.validated),
                 "count"});
    m.push_back({"core.validate_ms", static_cast<double>(t.validate_ns) * ms,
                 "ms"});
    m.push_back({"core.metrics_ms", static_cast<double>(t.metrics_ns) * ms,
                 "ms"});
    m.push_back({"core.violations", static_cast<double>(t.violations),
                 "count"});
    m.push_back({"exp.worlds",
                 spec_.streaming ? 0.0
                                 : static_cast<double>(outcome_.attempted),
                 "count"});
    m.push_back({"exp.point_ms",
                 per(driver_.point_s * 1e3,
                     static_cast<double>(driver_.points)),
                 "ms"});
    m.push_back({"exp.world_busy_frac",
                 per(driver_.world_s, driver_.thread_point_s), "ratio"});
    return m;
  }

  const WorkloadSpec& spec_;
  const Options& options_;
  Outcome outcome_;
  Failures failures_;
  std::vector<double> timed_rates_;   ///< jobs/s of each timed round
  std::vector<double> traced_rates_;  ///< jobs/s of each replayed round
  std::map<std::string, Entry> timed_;   ///< every timed-run digest
  std::map<std::string, Entry> round0_;  ///< round-0 digests, both runs
  DriverTotals driver_;
  LayerTotals layers_;
};

}  // namespace

std::string WorkloadSpec::describe() const {
  std::ostringstream out;
  out << "{\"policies\": [";
  for (std::size_t i = 0; i < policies.size(); ++i) {
    out << (i ? ", " : "") << '"' << policies[i] << '"';
  }
  out << "]";
  if (streaming) {
    out << ", \"arrivals\": \"" << ecs::to_string(stream.family)
        << "\", \"rate\": " << stream.rate
        << ", \"jobs_per_segment\": " << stream.n
        << ", \"ccr\": " << stream.shape.ccr
        << ", \"admission\": \"reject-newest\", \"max_live\": "
        << admission.max_live;
  } else {
    out << ", \"replications\": " << replications << ", \"points\": [";
    for (std::size_t i = 0; i < points.size(); ++i) {
      const ecs::RandomInstanceConfig& c = points[i].instance;
      out << (i ? ", " : "") << "{\"label\": \"" << points[i].label
          << "\", \"n\": " << c.n << ", \"load\": " << c.load
          << ", \"ccr\": " << c.ccr << "}";
    }
    out << "]";
  }
  out << ", \"platform\": {\"cloud\": 20, \"slow_edges\": 10, "
         "\"fast_edges\": 10}}";
  return out.str();
}

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    auto random_point = [](std::string label, int n, double load,
                           double ccr) {
      SweepPointSpec point;
      point.label = std::move(label);
      point.instance.n = n;
      point.instance.load = load;
      point.instance.ccr = ccr;
      return point;
    };

    // Figure 2(a): many short worlds with a tiny live set.
    WorkloadSpec sweep;
    sweep.name = "paper-sweep";
    sweep.policies = {"edge-only", "greedy", "srpt", "ssf-edf"};
    sweep.replications = 4;
    for (const double ccr : {0.1, 1.0, 10.0}) {
      std::ostringstream label;
      label << "ccr=" << ccr;
      sweep.points.push_back(random_point(label.str(), 4000, 0.05, ccr));
    }

    // Figure 2(b)'s heavy points: the O(live^2) arbitration regime.
    WorkloadSpec heavy;
    heavy.name = "paper-heavy";
    heavy.policies = {"greedy", "srpt", "ssf-edf"};
    heavy.replications = 4;
    heavy.check_ssf_edf_best = true;
    for (const double load : {1.0, 2.0}) {
      std::ostringstream label;
      label << "load=" << load;
      heavy.points.push_back(random_point(label.str(), 1000, load, 1.0));
    }

    // Poisson overload at ~1.5x the platform's ~2.6 jobs/unit capacity.
    // Each thread soaks its own segment: one soak alone reads the speed of
    // a single vCPU, whose contention drifts from run to run.
    WorkloadSpec stream;
    stream.name = "stream-overload";
    stream.policies = {"srpt"};
    stream.streaming = true;
    stream.stream.family = ecs::ArrivalFamily::kPoisson;
    stream.stream.n = 8000;
    stream.stream.rate = 4.0;
    stream.stream.shape.edge_count = 20;
    stream.admission.max_live = 64;
    stream.admission.rule = ecs::AdmissionRule::kRejectNewest;

    return std::vector<WorkloadSpec>{sweep, heavy, stream};
  }();
  return specs;
}

const WorkloadSpec& find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.name == name) return spec;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

Reference read_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference " + path);
  Reference ref;
  std::string line;
  bool have_seed = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) {
      throw std::runtime_error(path + ": malformed line '" + line + "'");
    }
    const std::string key = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    if (key == "seed") {
      ref.seed = std::stoull(value);
      have_seed = true;
    } else {
      ref.entries[key] = value;
    }
  }
  if (!have_seed) throw std::runtime_error(path + ": no seed line");
  return ref;
}

void write_reference(const std::string& path, const Reference& reference) {
  std::ofstream out(path);
  out << "# Round-0 digests: the exact outputs every world of the first\n"
         "# round must reproduce at this seed. Regenerate with\n"
         "# run.py --write-reference after an intended output change.\n";
  out << "seed " << reference.seed << "\n";
  for (const auto& [key, value] : reference.entries) {
    out << key << ' ' << value << "\n";
  }
  if (!out) throw std::runtime_error("cannot write reference " + path);
}

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

Outcome run_workload(const WorkloadSpec& spec, const Options& options) {
  return Runner(spec, options).run();
}

}  // namespace perfbench
