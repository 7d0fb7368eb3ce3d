// edge_only.hpp - The Edge-Only baseline (paper section V-A).
//
// Never uses the cloud: every job runs on its origin edge processor. Since
// the edges are then independent single machines, each runs the
// Stretch-So-Far Earliest-Deadline-First algorithm of Bender et al.
// independently: at each release, a binary search finds the smallest
// stretch achievable for the jobs currently live on that edge (preemptive
// EDF feasibility is *exact* on a single machine when all candidates are
// already released), deadlines d_i = r_i + S * min(t^e_i, t^c_i) are
// derived, and the edge processes jobs in EDF order with preemption.
//
// Following the paper, the stretch denominator still accounts for the
// potential cloud execution time min(t^e_i, t^c_i), so reported stretches
// are comparable with the cloud-using heuristics.
#pragma once

#include <vector>

#include "sched/common.hpp"

namespace ecs {

struct EdgeOnlyConfig {
  double epsilon = 1e-3;  ///< relative precision of the binary search
  int max_iterations = 60;
};

class EdgeOnlyPolicy final : public Policy {
 public:
  EdgeOnlyPolicy() = default;
  explicit EdgeOnlyPolicy(const EdgeOnlyConfig& config) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "Edge-Only"; }

  void reset(const Instance& instance) override;

  void decide(const SimView& view, const std::vector<Event>& events,
              std::vector<Directive>& out) override;

  /// Deadlines change only at releases and the output is one directive per
  /// live job keyed by those stored deadlines — so a round with no release
  /// and an unchanged live set re-emits the previous directives verbatim.
  /// (The engine additionally forces kFault/kRecovery as triggers and falls
  /// back to decide() whenever the live membership changed.)
  [[nodiscard]] ElisionContract elision() const override {
    return ElisionContract{ElisionContract::Mode::kReuseUnlessTriggered,
                           ElisionContract::bit(EventKind::kRelease)};
  }

 private:
  /// One candidate job of the per-edge EDF feasibility test.
  struct Entry {
    JobId id;
    std::int32_t slot;  ///< the job's state slot
    double deadline;
    double exec_time;  ///< remaining execution time on this edge
  };

  /// Smallest feasible stretch for the live jobs of edge `j` from the
  /// current state; exact up to epsilon (single-machine preemptive EDF).
  void recompute_edge_deadlines(const SimView& view, EdgeId j);

  /// Single-machine EDF feasibility for candidate stretch S on edge j.
  /// Non-const: it reuses the workspace entry buffer.
  [[nodiscard]] bool feasible_on_edge(const SimView& view, EdgeId j,
                                      double stretch,
                                      std::vector<double>* deadlines_out);

  EdgeOnlyConfig config_;
  std::vector<double> deadlines_;
  // Workspace, reused across decide() calls (zero steady-state allocation).
  std::vector<Entry> entries_;
  std::vector<char> touched_;  ///< edges with a release in this batch
};

}  // namespace ecs
