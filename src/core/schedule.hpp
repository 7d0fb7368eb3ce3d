// schedule.hpp - Concrete schedules for MinMaxStretch-EdgeCloud.
//
// A schedule (paper section III-B) fixes, for every job, its allocation
// alloc(i) — the origin edge processor or one cloud processor — and the
// disjoint interval sets E_i (execution), U_i (uplink) and D_i (downlink).
//
// The paper allows *re-execution*: a job may abandon a resource and restart
// from scratch elsewhere. The abandoned activity still occupied processors
// and communication ports, so we record it: each job has one final
// RunRecord plus any number of abandoned ones. Validation checks resource
// exclusivity over all runs but work/communication quantities only on the
// final run.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/interval.hpp"
#include "core/job.hpp"

namespace ecs {

/// alloc(i) values. The paper writes alloc(i) = 0 for a local execution and
/// k in [1, P^c] for cloud processor k; we use kAllocEdge and 0-based cloud
/// indices instead.
inline constexpr int kAllocUnassigned = -2;
inline constexpr int kAllocEdge = -1;

[[nodiscard]] constexpr bool is_cloud_alloc(int alloc) noexcept {
  return alloc >= 0;
}

/// One run of a job on one resource: the execution intervals, and for cloud
/// runs the uplink/downlink intervals. Edge runs keep uplink/downlink empty.
struct RunRecord {
  int alloc = kAllocUnassigned;
  IntervalSet exec;
  IntervalSet uplink;
  IntervalSet downlink;

  /// Completion of this run: the end of the downlink for a cloud run, of
  /// the execution for an edge run. nullopt when nothing happened yet.
  [[nodiscard]] std::optional<Time> completion() const noexcept {
    if (is_cloud_alloc(alloc) && !downlink.empty()) return downlink.max();
    if (is_cloud_alloc(alloc) && downlink.empty() && !exec.empty()) {
      // Cloud job with zero downlink time completes at end of execution.
      return exec.max();
    }
    if (alloc == kAllocEdge) return exec.max();
    return std::nullopt;
  }
};

/// Everything that happened to one job.
struct JobSchedule {
  RunRecord final_run;
  std::vector<RunRecord> abandoned;  ///< runs whose progress was lost

  [[nodiscard]] std::optional<Time> completion() const noexcept {
    return final_run.completion();
  }
};

/// A complete schedule for an instance. Indexed by JobId.
class Schedule {
 public:
  Schedule() = default;
  explicit Schedule(int job_count) : jobs_(job_count) {}
  /// Adopts per-job records indexed by JobId.
  explicit Schedule(std::vector<JobSchedule> jobs) : jobs_(std::move(jobs)) {}

  [[nodiscard]] int job_count() const noexcept {
    return static_cast<int>(jobs_.size());
  }
  [[nodiscard]] JobSchedule& job(JobId id) { return jobs_.at(id); }
  [[nodiscard]] const JobSchedule& job(JobId id) const { return jobs_.at(id); }
  [[nodiscard]] const std::vector<JobSchedule>& jobs() const noexcept {
    return jobs_;
  }

  /// Latest completion over all jobs; nullopt when any job is incomplete.
  [[nodiscard]] std::optional<Time> makespan() const noexcept;

 private:
  std::vector<JobSchedule> jobs_;
};

/// Multi-line human-readable dump (for examples and debugging).
[[nodiscard]] std::string to_string(const Schedule& schedule);

}  // namespace ecs
