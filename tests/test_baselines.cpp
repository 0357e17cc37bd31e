#include "baselines/baselines.hpp"

#include <gtest/gtest.h>

#include "test_env.hpp"

namespace eadt::baselines {
namespace {

using testutil::mixed_dataset;
using testutil::small_env;

TEST(Guc, UntunedSingleChunk) {
  const auto env = small_env();
  const auto ds = mixed_dataset();
  const auto plan = plan_guc(env, ds);
  ASSERT_EQ(plan.chunks.size(), 1u);
  EXPECT_EQ(plan.chunks[0].file_count(), ds.count());
  EXPECT_EQ(plan.params[0].pipelining, 1);
  EXPECT_EQ(plan.params[0].parallelism, 1);
  EXPECT_EQ(plan.params[0].channels, 1);
  EXPECT_EQ(plan.placement, proto::Placement::kRoundRobin);
}

TEST(Guc, ManualParametersPassThrough) {
  const auto env = small_env();
  const auto ds = mixed_dataset();
  const auto plan = plan_guc(env, ds, 4, 2, 8);
  EXPECT_EQ(plan.params[0].channels, 4);
  EXPECT_EQ(plan.params[0].parallelism, 2);
  EXPECT_EQ(plan.params[0].pipelining, 8);
  // Degenerate values clamp to 1.
  const auto clamped = plan_guc(env, ds, 0, -1, 0);
  EXPECT_EQ(clamped.params[0].channels, 1);
  EXPECT_EQ(clamped.params[0].parallelism, 1);
}

TEST(Go, FixedSizeClassesAndParameters) {
  const auto env = small_env();
  proto::Dataset ds;
  ds.files = {{10 * kMB}, {49 * kMB},            // small: < 50 MB
              {60 * kMB}, {200 * kMB},           // medium: 50-250 MB
              {300 * kMB}, {1 * kGB}};           // large: > 250 MB
  const auto plan = plan_go(env, ds);
  ASSERT_EQ(plan.chunks.size(), 3u);
  EXPECT_EQ(plan.chunks[0].file_count(), 2u);
  EXPECT_EQ(plan.chunks[1].file_count(), 2u);
  EXPECT_EQ(plan.chunks[2].file_count(), 2u);
  // Fixed parameter table: pipelining 20/5/1, parallelism 2, concurrency 2.
  EXPECT_EQ(plan.params[0].pipelining, 20);
  EXPECT_EQ(plan.params[1].pipelining, 5);
  EXPECT_EQ(plan.params[2].pipelining, 1);
  for (const auto& p : plan.params) {
    EXPECT_EQ(p.parallelism, 2);
    EXPECT_EQ(p.channels, 2);
  }
  EXPECT_TRUE(plan.sequential_chunks);
  EXPECT_EQ(plan.placement, proto::Placement::kRoundRobin);
}

TEST(Go, SkipsEmptyClasses) {
  const auto env = small_env();
  proto::Dataset ds;
  ds.files = {{1 * kGB}, {2 * kGB}};
  const auto plan = plan_go(env, ds);
  ASSERT_EQ(plan.chunks.size(), 1u);
  EXPECT_EQ(plan.params[0].pipelining, 1);  // the large-class parameters
}

TEST(Sc, SequentialWithFullConcurrencyPerChunk) {
  const auto env = small_env();
  const auto ds = mixed_dataset();
  const auto plan = plan_single_chunk(env, ds, 6);
  EXPECT_TRUE(plan.sequential_chunks);
  for (const auto& p : plan.params) EXPECT_EQ(p.channels, 6);
  EXPECT_EQ(plan.placement, proto::Placement::kPacked);
}

TEST(ProMc, SimultaneousWeightedChunks) {
  const auto env = small_env();
  const auto ds = mixed_dataset();
  const auto plan = plan_promc(env, ds, 8);
  EXPECT_FALSE(plan.sequential_chunks);
  EXPECT_EQ(plan.total_channels(), 8);  // uses the full budget
  EXPECT_EQ(plan.steal, proto::StealPolicy::kAll);
}

}  // namespace
}  // namespace eadt::baselines
