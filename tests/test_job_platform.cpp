// Tests for the job and platform model (core/job.hpp, core/platform.hpp).
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/job.hpp"
#include "core/platform.hpp"

namespace ecs {
namespace {

TEST(Platform, BasicAccessors) {
  const Platform p({0.5, 0.1}, 3);
  EXPECT_EQ(p.edge_count(), 2);
  EXPECT_EQ(p.cloud_count(), 3);
  EXPECT_EQ(p.processor_count(), 5);
  EXPECT_DOUBLE_EQ(p.edge_speed(0), 0.5);
  EXPECT_DOUBLE_EQ(p.edge_speed(1), 0.1);
}

TEST(Platform, TotalSpeed) {
  const Platform p({0.5, 0.1}, 3);
  EXPECT_DOUBLE_EQ(p.total_speed(), 3.6);
}

TEST(Platform, RejectsBadSpeeds) {
  EXPECT_THROW(Platform({0.0}, 1), std::invalid_argument);
  EXPECT_THROW(Platform({-0.5}, 1), std::invalid_argument);
  EXPECT_THROW(Platform({1.5}, 1), std::invalid_argument);
  EXPECT_THROW(Platform({0.5}, -1), std::invalid_argument);
}

TEST(Platform, ExecutionTimes) {
  const Platform p({0.5}, 1);
  const Job job{0, 0, 2.0, 0.0, 1.0, 0.5};
  EXPECT_DOUBLE_EQ(p.edge_time(job), 4.0);     // 2 / 0.5
  EXPECT_DOUBLE_EQ(p.cloud_time(job), 3.5);    // 1 + 2 + 0.5
  EXPECT_DOUBLE_EQ(p.best_time(job), 3.5);
}

TEST(Platform, BestTimePicksEdgeWhenCommsCostly) {
  const Platform p({0.5}, 1);
  const Job job{0, 0, 2.0, 0.0, 10.0, 10.0};
  EXPECT_DOUBLE_EQ(p.best_time(job), 4.0);
}

TEST(Platform, BestTimeWithoutCloud) {
  const Platform p({0.5}, 0);
  const Job job{0, 0, 2.0, 0.0, 0.0, 0.0};
  // No cloud: even "free" communications cannot help.
  EXPECT_DOUBLE_EQ(p.best_time(job), 4.0);
}

TEST(Job, ValidateAcceptsGoodJob) {
  const Job job{0, 1, 2.0, 3.0, 0.0, 0.0};
  EXPECT_TRUE(validate_job(job, 2).empty());
}

TEST(Job, ValidateRejectsBadParameters) {
  EXPECT_FALSE(validate_job(Job{0, 0, 0.0, 0.0, 0.0, 0.0}, 1).empty());
  EXPECT_FALSE(validate_job(Job{0, 0, -1.0, 0.0, 0.0, 0.0}, 1).empty());
  EXPECT_FALSE(validate_job(Job{0, 0, 1.0, -1.0, 0.0, 0.0}, 1).empty());
  EXPECT_FALSE(validate_job(Job{0, 0, 1.0, 0.0, -0.1, 0.0}, 1).empty());
  EXPECT_FALSE(validate_job(Job{0, 0, 1.0, 0.0, 0.0, -0.1}, 1).empty());
  EXPECT_FALSE(validate_job(Job{0, 5, 1.0, 0.0, 0.0, 0.0}, 2).empty());
  EXPECT_FALSE(validate_job(Job{0, -1, 1.0, 0.0, 0.0, 0.0}, 2).empty());
}

// The exact wording of each check: callers (the CSV loader, the streaming
// engine) pass these strings straight to the user.
TEST(Job, ValidateMessagesAreExact) {
  EXPECT_EQ(validate_job(Job{3, 0, 0.0, 0.0, 0.0, 0.0}, 1),
            "job 3: work must exceed 1e-06 (the amount tolerance) and be "
            "finite, got 0");
  EXPECT_EQ(validate_job(Job{4, 0, 1.0, -1.5, 0.0, 0.0}, 1),
            "job 4: release date must be >= 0 and finite, got -1.5");
  EXPECT_EQ(validate_job(Job{5, 0, 1.0, 0.0, -0.25, 0.0}, 1),
            "job 5: uplink time must be >= 0 and finite, got -0.25");
  EXPECT_EQ(validate_job(Job{6, 0, 1.0, 0.0, 0.0, -2.0}, 1),
            "job 6: downlink time must be >= 0 and finite, got -2");
  EXPECT_EQ(validate_job(Job{7, 5, 1.0, 0.0, 0.0, 0.0}, 2),
            "job 7: origin 5 out of range [0, 2)");
  // Checks run in that order: the first failing one is reported.
  EXPECT_EQ(validate_job(Job{8, -1, 1.0, -1.0, 0.0, 0.0}, 2),
            "job 8: release date must be >= 0 and finite, got -1");
}

TEST(Instance, ValidateChecksIdsMatchPositions) {
  Instance instance;
  instance.platform = Platform({0.5}, 1);
  instance.jobs = {{1, 0, 1.0, 0.0, 0.0, 0.0}};  // id 1 at position 0
  const auto problems = validate_instance(instance);
  ASSERT_FALSE(problems.empty());
  ASSERT_EQ(problems.size(), 1U);
  EXPECT_EQ(problems[0],
            "job at position 0 has id 1 (ids must equal positions)");
}

TEST(Instance, RequireValidThrowsWithAllProblems) {
  Instance instance;
  instance.platform = Platform({0.5}, 1);
  instance.jobs = {{0, 0, -1.0, 0.0, 0.0, 0.0}};
  EXPECT_THROW(require_valid_instance(instance), std::invalid_argument);
}

TEST(Instance, ValidInstancePasses) {
  Instance instance;
  instance.platform = Platform({0.5, 0.1}, 2);
  instance.jobs = {{0, 0, 1.0, 0.0, 1.0, 1.0}, {1, 1, 2.0, 1.0, 0.0, 0.0}};
  EXPECT_TRUE(validate_instance(instance).empty());
  EXPECT_NO_THROW(require_valid_instance(instance));
}

TEST(Instance, EmptyPlatformRejected) {
  Instance instance;  // default platform: no edges
  const auto problems = validate_instance(instance);
  ASSERT_FALSE(problems.empty());
}

}  // namespace
}  // namespace ecs
