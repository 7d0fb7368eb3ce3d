// Smoke tests over the sample instances shipped in data/: they must load,
// validate, and schedule under every policy. Guards the on-disk format
// against accidental incompatible changes to trace_io.
#include <gtest/gtest.h>

#include "core/validate.hpp"
#include "exp/runner.hpp"
#include "sched/factory.hpp"
#include "workloads/trace_io.hpp"

namespace ecs {
namespace {

class DataFiles : public ::testing::TestWithParam<const char*> {};

TEST_P(DataFiles, LoadsValidatesAndSchedules) {
  const std::string path = std::string(ECS_SOURCE_DIR) + "/" + GetParam();
  const Instance instance = load_instance_file(path);
  EXPECT_TRUE(validate_instance(instance).empty());
  EXPECT_GT(instance.job_count(), 0);
  for (const char* name : {"srpt", "ssf-edf"}) {
    RunOptions options;
    options.validate = true;
    const RunOutcome outcome = run_policy(instance, name, options);
    EXPECT_TRUE(outcome.validated) << path << " / " << name;
    EXPECT_GE(outcome.metrics.max_stretch, 1.0 - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Shipped, DataFiles,
                         ::testing::Values("data/random_small.csv",
                                           "data/kang_small.csv"),
                         [](const auto& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (c == '/' || c == '.') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace ecs
