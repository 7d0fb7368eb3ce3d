#include "core/job.hpp"

#include <cmath>
#include <sstream>

namespace ecs {

std::string to_string(const Job& job) {
  std::ostringstream os;
  os << "J" << job.id << "{origin=" << job.origin << ", w=" << job.work
     << ", r=" << job.release << ", up=" << job.up << ", dn=" << job.down
     << "}";
  return os.str();
}

std::string validate_job(const Job& job, int edge_count) {
  // Work below the amount tolerance is indistinguishable from "already
  // finished" to the engine (its completion detection would never fire),
  // so such degenerate jobs are rejected up front. 10x the tolerance keeps
  // a safety margin.
  const double min_work = 10.0 * kAmountEpsilon;
  const bool work_ok = job.work > min_work && std::isfinite(job.work);
  const bool release_ok = job.release >= 0.0 && std::isfinite(job.release);
  const bool up_ok = job.up >= 0.0 && std::isfinite(job.up);
  const bool down_ok = job.down >= 0.0 && std::isfinite(job.down);
  const bool origin_ok = job.origin >= 0 && job.origin < edge_count;
  // Every valid job passes through here on each prepare() and streaming
  // arrival, so the stream is built only once a check has failed.
  if (work_ok && release_ok && up_ok && down_ok && origin_ok) return {};
  std::ostringstream os;
  os << "job " << job.id << ": ";
  if (!work_ok) {
    os << "work must exceed " << min_work
       << " (the amount tolerance) and be finite, got " << job.work;
  } else if (!release_ok) {
    os << "release date must be >= 0 and finite, got " << job.release;
  } else if (!up_ok) {
    os << "uplink time must be >= 0 and finite, got " << job.up;
  } else if (!down_ok) {
    os << "downlink time must be >= 0 and finite, got " << job.down;
  } else {
    os << "origin " << job.origin << " out of range [0, " << edge_count
       << ")";
  }
  return os.str();
}

}  // namespace ecs
