#include "net/fair_share.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "util/rng.hpp"

namespace eadt::net {
namespace {

TEST(FairShare, EqualWeightsSplitEvenly) {
  std::vector<Demand> d(4, Demand{gbps(10.0), 1.0});
  const auto r = fair_share(gbps(8.0), d);
  for (double a : r.allocation) EXPECT_NEAR(a, gbps(2.0), 1.0);
  EXPECT_NEAR(r.total, gbps(8.0), 1.0);
}

TEST(FairShare, WeightsAreProportional) {
  std::vector<Demand> d{{gbps(10.0), 1.0}, {gbps(10.0), 3.0}};
  const auto r = fair_share(gbps(8.0), d);
  EXPECT_NEAR(r.allocation[0], gbps(2.0), 1.0);
  EXPECT_NEAR(r.allocation[1], gbps(6.0), 1.0);
}

TEST(FairShare, CapsAreRespectedAndRedistributed) {
  // Channel 0 can only take 1 Gbps; the leftover goes to the others.
  std::vector<Demand> d{{gbps(1.0), 1.0}, {gbps(10.0), 1.0}, {gbps(10.0), 1.0}};
  const auto r = fair_share(gbps(9.0), d);
  EXPECT_NEAR(r.allocation[0], gbps(1.0), 1.0);
  EXPECT_NEAR(r.allocation[1], gbps(4.0), 1.0);
  EXPECT_NEAR(r.allocation[2], gbps(4.0), 1.0);
}

TEST(FairShare, WorkConservingUnderCapacity) {
  std::vector<Demand> d{{gbps(1.0), 1.0}, {gbps(2.0), 1.0}};
  const auto r = fair_share(gbps(10.0), d);
  EXPECT_NEAR(r.allocation[0], gbps(1.0), 1.0);
  EXPECT_NEAR(r.allocation[1], gbps(2.0), 1.0);
  EXPECT_NEAR(r.total, gbps(3.0), 1.0);
}

TEST(FairShare, EmptyAndDegenerateInputs) {
  EXPECT_TRUE(fair_share(gbps(1.0), {}).allocation.empty());
  std::vector<Demand> d{{gbps(1.0), 1.0}};
  EXPECT_DOUBLE_EQ(fair_share(0.0, d).total, 0.0);
  std::vector<Demand> zero_cap{{0.0, 1.0}, {gbps(2.0), 1.0}};
  const auto r = fair_share(gbps(1.0), zero_cap);
  EXPECT_DOUBLE_EQ(r.allocation[0], 0.0);
  EXPECT_NEAR(r.allocation[1], gbps(1.0), 1.0);
}

TEST(FairShare, ZeroWeightGetsNothing) {
  std::vector<Demand> d{{gbps(5.0), 0.0}, {gbps(5.0), 1.0}};
  const auto r = fair_share(gbps(4.0), d);
  EXPECT_DOUBLE_EQ(r.allocation[0], 0.0);
  EXPECT_NEAR(r.allocation[1], gbps(4.0), 1.0);
}

// Property sweep: invariants hold for random demand sets.
class FairShareProperty : public ::testing::TestWithParam<int> {};

TEST_P(FairShareProperty, Invariants) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int n = static_cast<int>(rng.uniform_int(1, 24));
  std::vector<Demand> d;
  for (int i = 0; i < n; ++i) {
    d.push_back({rng.uniform(0.0, 5e9), rng.uniform(0.5, 4.0)});
  }
  const double capacity = rng.uniform(1e8, 2e10);
  const auto r = fair_share(capacity, d);

  ASSERT_EQ(r.allocation.size(), d.size());
  double sum = 0.0, cap_sum = 0.0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_GE(r.allocation[i], -1e-6);
    EXPECT_LE(r.allocation[i], d[i].cap + 1e-3);
    sum += r.allocation[i];
    cap_sum += d[i].cap;
  }
  EXPECT_LE(sum, capacity + 1e-3);
  // Work conservation: total equals min(capacity, sum of caps).
  EXPECT_NEAR(sum, std::min(capacity, cap_sum), std::max(1.0, sum * 1e-9));
  EXPECT_NEAR(sum, r.total, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(RandomDemands, FairShareProperty, ::testing::Range(0, 25));

// Raising one channel's weight (everything else fixed) must never reduce its
// allocation, and must never increase anyone else's.
TEST_P(FairShareProperty, WeightMonotonicity) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const int n = static_cast<int>(rng.uniform_int(2, 16));
  std::vector<Demand> d;
  for (int i = 0; i < n; ++i) {
    d.push_back({rng.uniform(1e8, 5e9), rng.uniform(0.5, 4.0)});
  }
  const double capacity = rng.uniform(1e8, 1e10);
  const auto base = fair_share(capacity, d);

  const auto bumped_idx = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
  d[bumped_idx].weight *= rng.uniform(1.5, 4.0);
  const auto bumped = fair_share(capacity, d);

  EXPECT_GE(bumped.allocation[bumped_idx], base.allocation[bumped_idx] - 1e-6);
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (i == bumped_idx) continue;
    EXPECT_LE(bumped.allocation[i], base.allocation[i] + 1e-6);
  }
}

TEST(FairShare, AllZeroWeightsAllocateNothing) {
  std::vector<Demand> d{{gbps(5.0), 0.0}, {gbps(3.0), 0.0}};
  const auto r = fair_share(gbps(4.0), d);
  EXPECT_DOUBLE_EQ(r.total, 0.0);
  for (double a : r.allocation) EXPECT_DOUBLE_EQ(a, 0.0);
}

// Pin the all-zero-weight contract at fleet size: the active set is
// non-empty but its weight sum is zero, so the waterlevel division must be
// guarded — the round allocates nothing (no NaNs, no infinities) instead of
// dividing by zero. Routed through fair_share_into and a full LinkArbiter
// round so the guard is checked where production traffic actually flows.
TEST(FairShare, AllZeroWeightsAboveThresholdAllocateNothing) {
  std::vector<Demand> d(kWaterfillThreshold * 3, Demand{gbps(2.0), 0.0});
  FairShareScratch scratch;
  std::vector<BitsPerSecond> alloc;
  const BitsPerSecond total = fair_share_into(gbps(40.0), d, alloc, scratch);
  EXPECT_DOUBLE_EQ(total, 0.0);
  for (double a : alloc) ASSERT_DOUBLE_EQ(a, 0.0);

  LinkArbiter arbiter;
  arbiter.begin_round(gbps(40.0));
  const std::vector<DemandGroup> groups{{gbps(2.0), 0.0, kWaterfillThreshold * 3}};
  const std::size_t slot = arbiter.submit_groups(groups);
  arbiter.allocate();
  EXPECT_DOUBLE_EQ(arbiter.total(), 0.0);
  for (double a : arbiter.slice(slot)) ASSERT_DOUBLE_EQ(a, 0.0);
}

TEST(FairShare, AllZeroCapsAllocateNothing) {
  std::vector<Demand> d{{0.0, 1.0}, {0.0, 2.0}};
  const auto r = fair_share(gbps(4.0), d);
  EXPECT_DOUBLE_EQ(r.total, 0.0);
  for (double a : r.allocation) EXPECT_DOUBLE_EQ(a, 0.0);
}

// The scratch-reusing entry point is the allocating one's hot twin: whatever
// state the scratch and output vectors carry over from previous (differently
// sized) calls, the result must be bit-for-bit what fair_share computes.
TEST(FairShare, ScratchReuseIsBitwiseIdentical) {
  Rng rng(4242);
  FairShareScratch scratch;
  std::vector<BitsPerSecond> alloc;
  for (int round = 0; round < 200; ++round) {
    const int n = static_cast<int>(rng.uniform_int(0, 32));
    std::vector<Demand> d;
    for (int i = 0; i < n; ++i) {
      // Include degenerate channels so the in-place survivor compaction runs.
      const double cap = rng.uniform(0.0, 1.0) < 0.1 ? 0.0 : rng.uniform(1e7, 5e9);
      const double weight = rng.uniform(0.0, 1.0) < 0.1 ? 0.0 : rng.uniform(0.1, 4.0);
      d.push_back({cap, weight});
    }
    const double capacity = rng.uniform(0.0, 1e10);
    const auto reference = fair_share(capacity, d);
    const double total = fair_share_into(capacity, d, alloc, scratch);
    ASSERT_EQ(alloc.size(), reference.allocation.size());
    for (std::size_t i = 0; i < alloc.size(); ++i) {
      ASSERT_EQ(alloc[i], reference.allocation[i]) << "round " << round << " ch " << i;
    }
    ASSERT_EQ(total, reference.total) << "round " << round;
  }
}

}  // namespace
}  // namespace eadt::net
