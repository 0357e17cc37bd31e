#include "net/fair_share.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <limits>
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
// dividing by zero. Routed through fair_share_reference_into and a full LinkArbiter
// round so the guard is checked where production traffic actually flows.
TEST(FairShare, AllZeroWeightsAboveThresholdAllocateNothing) {
  std::vector<Demand> d(kWaterfillThreshold * 3, Demand{gbps(2.0), 0.0});
  FairShareScratch scratch;
  std::vector<BitsPerSecond> alloc;
  const BitsPerSecond total = fair_share_reference_into(gbps(40.0), d, alloc, scratch);
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
    const double total = fair_share_reference_into(capacity, d, alloc, scratch);
    ASSERT_EQ(alloc.size(), reference.allocation.size());
    for (std::size_t i = 0; i < alloc.size(); ++i) {
      ASSERT_EQ(alloc[i], reference.allocation[i]) << "round " << round << " ch " << i;
    }
    ASSERT_EQ(total, reference.total) << "round " << round;
  }
}

// --- the unit-weight clamp -------------------------------------------------
//
// The session's disk pools keep min(cap, allocation) of a unit-weight fill.
// unit_fill_clamp writes that in place; it is checked against the reference
// fill followed by the same min, bit for bit.

/// min(cap_i, reference allocation_i) for every flow.
std::vector<double> clamped_by_reference(double capacity, const std::vector<double>& caps) {
  std::vector<Demand> d;
  for (const double c : caps) d.push_back({c, 1.0});
  FairShareScratch scratch;
  std::vector<BitsPerSecond> alloc;
  fair_share_reference_into(capacity, d, alloc, scratch);
  std::vector<double> out(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) out[i] = std::min(d[i].cap, alloc[i]);
  return out;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// How the fill's first round ends: every positive cap at or under the
/// equal split (or none positive), none of them, or some of each.
enum class RoundOne { kAllCapped, kAllShared, kMixed };

RoundOne round_one(double capacity, const std::vector<double>& caps) {
  std::size_t k = 0;
  for (const double c : caps) k += c > 0.0 ? 1 : 0;
  if (k == 0) return RoundOne::kAllCapped;
  if (!(capacity > 1e-9)) return RoundOne::kAllShared;
  const double share = capacity / static_cast<double>(k);
  std::size_t capped = 0;
  for (const double c : caps) capped += c > 0.0 && c <= share ? 1 : 0;
  if (capped == k) return RoundOne::kAllCapped;
  return capped == 0 ? RoundOne::kAllShared : RoundOne::kMixed;
}

/// Clamp a copy of `caps` in place (through a scratch that served other
/// pools before), assert it matches the reference, and return the round-one
/// outcome.
RoundOne check_clamp(double capacity, const std::vector<double>& caps) {
  static FairShareScratch scratch;
  std::vector<double> clamped = caps;
  unit_fill_clamp(capacity, clamped, scratch);
  EXPECT_TRUE(bitwise_equal(clamped, clamped_by_reference(capacity, caps)))
      << "capacity " << capacity << ", " << caps.size() << " flows";
  return round_one(capacity, caps);
}

TEST(UnitFillClamp, MatchesTheReferenceBitForBit) {
  Rng rng(20151115);
  constexpr int kPools = 20000;
  int hits[3] = {0, 0, 0};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (int pool = 0; pool < kPools; ++pool) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 24));
    double capacity = rng.uniform(1e8, 2e10);
    const double c = rng.uniform01();
    if (c < 0.02) capacity = 0.0;
    else if (c < 0.04) capacity = rng.uniform(0.0, 1e-9);
    else if (c < 0.05) capacity = -rng.uniform(1.0, 1e9);
    else if (c < 0.055) capacity = nan;
    else if (c < 0.06) capacity = inf;
    // Caps under, over or around the equal split, so every round-one
    // outcome occurs.
    const auto mode = rng.uniform_int(0, 2);
    const double scale = std::isfinite(capacity) && capacity > 0.0
                             ? capacity / static_cast<double>(n) : rng.uniform(1e7, 1e9);
    std::vector<double> caps;
    for (std::size_t i = 0; i < n; ++i) {
      const double r = rng.uniform01();
      double cap = 0.0;
      if (r < 0.03) cap = 0.0;
      else if (r < 0.05) cap = -rng.uniform(1.0, 1e9);
      else if (r < 0.06) cap = -0.0;
      else if (r < 0.07) cap = nan;
      else if (r < 0.08) cap = inf;
      else if (mode == 0) cap = scale * rng.uniform(0.05, 1.0);
      else if (mode == 1) cap = scale * rng.uniform(1.0, 8.0);
      else cap = scale * rng.uniform(0.05, 3.0);
      caps.push_back(cap);
    }
    ++hits[static_cast<int>(check_clamp(capacity, caps))];
  }
  EXPECT_GT(hits[static_cast<int>(RoundOne::kAllCapped)], kPools / 10);
  EXPECT_GT(hits[static_cast<int>(RoundOne::kAllShared)], kPools / 10);
  EXPECT_GT(hits[static_cast<int>(RoundOne::kMixed)], kPools / 10);
}

TEST(UnitFillClamp, EdgeCases) {
  using K = RoundOne;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // A cap exactly at capacity/k is capped: the reference tests headroom <= share.
  EXPECT_EQ(check_clamp(3e9, {1e9, 1e9, 1e9}), K::kAllCapped);
  EXPECT_EQ(check_clamp(3e9, {1e9, 2e9, 2e9}), K::kMixed);
  EXPECT_EQ(check_clamp(3e9, {1e9 + 1.0, 2e9, 2e9}), K::kAllShared);
  // Caps that are not positive take no part; they keep their value.
  EXPECT_EQ(check_clamp(2e9, {0.0, -5.0, nan, -0.0, 3e9}), K::kAllShared);
  EXPECT_EQ(check_clamp(2e9, {0.0, -5.0, nan, -0.0, 1e9}), K::kAllCapped);
  EXPECT_EQ(check_clamp(2e9, {0.0, -0.0, nan}), K::kAllCapped);
  // An infinite cap is never under the share; an infinite pool caps everyone.
  EXPECT_EQ(check_clamp(2e9, {inf, inf}), K::kAllShared);
  EXPECT_EQ(check_clamp(2e9, {inf, 1e8}), K::kMixed);
  EXPECT_EQ(check_clamp(inf, {inf, 1e8, 0.0}), K::kAllCapped);
  // No capacity, or capacity at or under the reference's 1e-9 floor, or NaN:
  // the reference fills nothing, so every positive cap clamps to zero.
  for (const double capacity : {0.0, 1e-9, 5e-10, 1e-300, -1.0, nan}) {
    EXPECT_EQ(check_clamp(capacity, {1e9, 1e-12, inf, 0.0, -3.0, nan}), K::kAllShared)
        << capacity;
  }
  // Later rounds: the capped flows' caps leave the pool, in index order, and
  // the survivors split what is left.
  std::vector<double> cascade = {1e9, 2e9, 4e9};
  FairShareScratch scratch;
  unit_fill_clamp(6e9, cascade, scratch);
  EXPECT_EQ(cascade, (std::vector<double>{1e9, 2e9, 3e9}));
  // A single flow: under, at and over the pool.
  EXPECT_EQ(check_clamp(1e9, {5e8}), K::kAllCapped);
  EXPECT_EQ(check_clamp(1e9, {1e9}), K::kAllCapped);
  EXPECT_EQ(check_clamp(1e9, {2e9}), K::kAllShared);
  std::vector<double> one = {2e9};
  unit_fill_clamp(1e9, one, scratch);
  EXPECT_EQ(one[0], 1e9);
  // No flows at all.
  EXPECT_EQ(check_clamp(1e9, {}), K::kAllCapped);
}

}  // namespace
}  // namespace eadt::net
