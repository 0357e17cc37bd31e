// Differential battery for net::WaterfillSolver.
//
// The solver's contract is BITWISE equality with the pinned per-flow
// progressive-filling loop (fair_share_reference_into) on every input — that
// loop's bits are baked into every golden in the repo, so "close" is not
// good enough. Every comparison here is ASSERT_EQ on doubles, never
// EXPECT_NEAR: randomized grids, duplicate-demand clusters, degenerate and
// adversarial near-boundary inputs, dist mode against the expanded demand
// list, and the LinkArbiter grouped-submission path. docs/MODEL.md §15 has
// the equivalence argument these tests enforce.
#include "net/waterfill.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "net/fair_share.hpp"
#include "util/rng.hpp"

namespace eadt::net {
namespace {

/// Bit-pattern representation: the equality the solver promises is on the
/// stored bits, which operator== cannot express for NaN (NaN != NaN even
/// when the payloads match). -0.0 and +0.0 are distinct here on purpose.
std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

std::vector<Demand> expand(const std::vector<DemandGroup>& groups) {
  std::vector<Demand> flat;
  for (const auto& g : groups) {
    flat.insert(flat.end(), static_cast<std::size_t>(g.count),
                Demand{g.cap, g.weight});
  }
  return flat;
}

/// Assert solver.solve() == reference on `demands`, bit for bit.
void check_scalar(BitsPerSecond capacity, const std::vector<Demand>& demands,
                  WaterfillSolver& solver, const char* what) {
  FairShareScratch scratch;
  std::vector<BitsPerSecond> ref;
  const BitsPerSecond ref_total =
      fair_share_reference_into(capacity, demands, ref, scratch);
  std::vector<BitsPerSecond> got;
  const BitsPerSecond got_total = solver.solve(capacity, demands, got);
  ASSERT_EQ(got.size(), ref.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(bits(got[i]), bits(ref[i]))
        << what << ": flow " << i << " of " << ref.size() << " got " << got[i]
        << " want " << ref[i] << " cap=" << demands[i].cap
        << " w=" << demands[i].weight;
  }
  ASSERT_EQ(bits(got_total), bits(ref_total))
      << what << ": total " << got_total << " want " << ref_total;
}

/// Assert solve_dist() per-member rates and total match the reference run on
/// the expanded list, bit for bit.
void check_dist(BitsPerSecond capacity, const std::vector<DemandGroup>& groups,
                WaterfillSolver& solver, const char* what) {
  const auto flat = expand(groups);
  FairShareScratch scratch;
  std::vector<BitsPerSecond> ref;
  const BitsPerSecond ref_total =
      fair_share_reference_into(capacity, flat, ref, scratch);
  std::vector<BitsPerSecond> rates;
  const BitsPerSecond got_total = solver.solve_dist(capacity, groups, rates);
  ASSERT_EQ(rates.size(), groups.size()) << what;
  std::size_t at = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (std::uint64_t k = 0; k < groups[g].count; ++k, ++at) {
      ASSERT_EQ(bits(rates[g]), bits(ref[at]))
          << what << ": group " << g << " member " << k << " got " << rates[g]
          << " want " << ref[at] << " cap=" << groups[g].cap
          << " w=" << groups[g].weight;
    }
  }
  ASSERT_EQ(bits(got_total), bits(ref_total))
      << what << ": total " << got_total << " want " << ref_total;
}

// --- randomized differential grids --------------------------------------

class WaterfillDifferential : public ::testing::TestWithParam<int> {};

// Mixed random demands: caps and weights spread over decades, with a dose of
// degenerate entries (zero cap, zero weight) so the active-set filter and
// the reference's survivor compaction both engage.
TEST_P(WaterfillDifferential, RandomScalarGridMatchesReferenceBitwise) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1000003ULL + 17);
  WaterfillSolver solver;
  for (int round = 0; round < 40; ++round) {
    const int n = static_cast<int>(rng.uniform_int(0, 400));
    std::vector<Demand> d;
    for (int i = 0; i < n; ++i) {
      const double cap =
          rng.uniform01() < 0.08 ? 0.0 : rng.uniform(1e4, 5e9);
      const double weight =
          rng.uniform01() < 0.08 ? 0.0 : rng.uniform(0.1, 8.0);
      d.push_back({cap, weight});
    }
    const double capacity = rng.uniform01() < 0.05 ? 0.0 : rng.uniform(1e5, 2e12);
    check_scalar(capacity, d, solver, "random scalar grid");
  }
}

// Duplicate-demand clusters: the dominant real shape (k parallel streams of
// one channel, fleets of same-shape tenants). The run-length collapse inside
// solve() must reproduce the per-flow bits, absorption effects included.
TEST_P(WaterfillDifferential, DuplicateClusterGridMatchesReferenceBitwise) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919ULL + 101);
  WaterfillSolver solver;
  for (int round = 0; round < 20; ++round) {
    std::vector<Demand> d;
    const int clusters = static_cast<int>(rng.uniform_int(1, 24));
    double cap_sum = 0.0;
    for (int c = 0; c < clusters; ++c) {
      const Demand proto{rng.uniform(1e5, 1e9),
                         static_cast<double>(rng.uniform_int(1, 6))};
      const auto k = rng.uniform_int(1, 300);
      d.insert(d.end(), static_cast<std::size_t>(k), proto);
      cap_sum += proto.cap * static_cast<double>(k);
    }
    // Capacity spanning under- to over-subscription around the aggregate.
    const double capacity = cap_sum * rng.uniform(0.05, 1.5);
    check_scalar(capacity, d, solver, "duplicate cluster grid");
  }
}

TEST_P(WaterfillDifferential, RandomDistGroupsMatchReferenceBitwise) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 524287ULL + 3);
  WaterfillSolver solver;
  for (int round = 0; round < 20; ++round) {
    const int ng = static_cast<int>(rng.uniform_int(0, 32));
    std::vector<DemandGroup> groups;
    double cap_sum = 0.0;
    for (int g = 0; g < ng; ++g) {
      DemandGroup grp{rng.uniform01() < 0.08 ? 0.0 : rng.uniform(1e5, 1e9),
                      rng.uniform01() < 0.08 ? 0.0
                                             : static_cast<double>(rng.uniform_int(1, 8)),
                      rng.uniform_int(0, 200)};  // count 0 must be a no-op
      groups.push_back(grp);
      cap_sum += grp.cap * static_cast<double>(grp.count);
    }
    const double capacity = std::max(1e6, cap_sum * rng.uniform(0.05, 1.5));
    check_dist(capacity, groups, solver, "random dist groups");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WaterfillDifferential, ::testing::Range(0, 12));

// --- adversarial and degenerate inputs ----------------------------------

// Demands packed within a few ulps of each other around the waterlevel: the
// certified interval cannot separate them, so the solver must detect the
// ambiguity and fall back to exact replay rounds — and still match bitwise.
TEST(Waterfill, NearBoundaryTiesForceExactRoundsAndStillMatch) {
  Rng rng(0xBEEF);
  WaterfillSolver solver;
  for (int round = 0; round < 200; ++round) {
    const double base = rng.uniform(1e6, 1e9);
    const int n = static_cast<int>(rng.uniform_int(2, 64));
    std::vector<Demand> d;
    for (int i = 0; i < n; ++i) {
      // Caps differing by 0..4 ulps; weights exactly 1 so the waterlevel
      // lands on top of the whole cluster.
      double cap = base;
      for (int u = static_cast<int>(rng.uniform_int(0, 4)); u > 0; --u) {
        cap = std::nextafter(cap, 2.0 * base);
      }
      d.push_back({cap, 1.0});
    }
    // Capacity chosen so per-weight share ~ base: maximal ambiguity.
    const double capacity = base * static_cast<double>(n) * rng.uniform(0.999, 1.001);
    check_scalar(capacity, d, solver, "near-boundary ties");
  }
}

TEST(Waterfill, DegenerateInputsMatchReference) {
  WaterfillSolver solver;
  check_scalar(gbps(1.0), {}, solver, "empty");
  check_scalar(0.0, {{gbps(1.0), 1.0}}, solver, "zero capacity");
  check_scalar(-5.0, {{gbps(1.0), 1.0}}, solver, "negative capacity");
  check_scalar(gbps(1.0), {{0.0, 1.0}, {0.0, 2.0}}, solver, "all caps zero");
  check_scalar(gbps(1.0), {{gbps(1.0), 0.0}, {gbps(2.0), 0.0}}, solver,
               "all weights zero");
  check_scalar(gbps(1.0), {{-gbps(1.0), 1.0}, {gbps(2.0), 1.0}}, solver,
               "negative cap");
  check_scalar(gbps(1.0), {{gbps(1.0), -2.0}, {gbps(2.0), 1.0}}, solver,
               "negative weight");
  check_dist(gbps(1.0), {}, solver, "dist empty");
  check_dist(gbps(1.0), {{gbps(2.0), 1.0, 0}}, solver, "dist count zero");
  check_dist(0.0, {{gbps(2.0), 1.0, 4}}, solver, "dist zero capacity");
}

// The division-by-zero guard: every active demand has zero weight, so the
// round's weight sum is zero. The reference breaks out (allocating nothing)
// instead of dividing; the solver must do exactly the same — no NaNs, no
// infinities, zero total. Checked well above the old kWaterfillThreshold,
// in the solver and in the reference loop the product runs.
TEST(Waterfill, AllZeroWeightsAtScaleAllocateNothing) {
  std::vector<Demand> d(2000, Demand{gbps(1.0), 0.0});
  WaterfillSolver solver;
  std::vector<BitsPerSecond> alloc;
  const BitsPerSecond total = solver.solve(gbps(100.0), d, alloc);
  EXPECT_EQ(total, 0.0);
  for (double a : alloc) ASSERT_EQ(a, 0.0);

  FairShareScratch scratch;
  const BitsPerSecond via_reference =
      fair_share_reference_into(gbps(100.0), d, alloc, scratch);
  EXPECT_EQ(via_reference, 0.0);
  for (double a : alloc) ASSERT_EQ(a, 0.0);
  check_scalar(gbps(100.0), d, solver, "all-zero weights at scale");
}

// Non-finite demands must take the exact-replay path and still match the
// reference bit for bit (infinite caps propagate; NaNs poison comparisons in
// well-defined reference ways the solver may not reorder).
TEST(Waterfill, NonFiniteInputsMatchReference) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  WaterfillSolver solver;
  check_scalar(gbps(10.0), {{inf, 1.0}, {gbps(1.0), 1.0}}, solver, "inf cap");
  check_scalar(gbps(10.0), {{gbps(1.0), inf}, {gbps(1.0), 1.0}}, solver,
               "inf weight");
  check_scalar(inf, {{gbps(1.0), 1.0}, {gbps(2.0), 3.0}}, solver,
               "inf capacity");
  check_scalar(gbps(10.0), {{nan, 1.0}, {gbps(1.0), 1.0}}, solver, "nan cap");
  check_scalar(gbps(10.0), {{gbps(1.0), nan}, {gbps(2.0), 1.0}}, solver,
               "nan weight");
  check_dist(gbps(10.0), {{inf, 1.0, 3}, {gbps(1.0), 2.0, 5}}, solver,
             "dist inf cap");
}

// Huge counts ride the absorption early-out in the k-fold replay: once an
// addition stops changing the accumulator, the remaining repetitions are
// provably no-ops and are skipped. With the micro group's weight and cap far
// below one ulp of the running sums, 10^15 members cost one iteration each
// replay — the call must return promptly with the values the (infeasible)
// expansion would produce: both groups capped at their own demand.
TEST(Waterfill, HugeCountsAbsorbAndTerminate) {
  WaterfillSolver solver;
  std::vector<DemandGroup> groups{{gbps(5.0), 2.0, 3},
                                  {1e-18, 1e-18, 1000000000000000ULL}};
  std::vector<BitsPerSecond> rates;
  const BitsPerSecond total = solver.solve_dist(gbps(20.0), groups, rates);
  EXPECT_TRUE(std::isfinite(total));
  EXPECT_EQ(rates[0], gbps(5.0));
  EXPECT_EQ(rates[1], 1e-18);
  EXPECT_EQ(total, 3.0 * gbps(5.0));  // the micro group's bits all absorb
}

// --- fast-path engagement ------------------------------------------------

// On a well-separated large grid the certified path must actually engage:
// bitwise equality via 100% exact-replay rounds would be vacuous. Round
// count must also be group-bounded, not flow-bounded.
TEST(Waterfill, CertifiedPathEngagesOnSeparatedGrids) {
  Rng rng(0x5EED);
  std::vector<DemandGroup> groups;
  double cap_sum = 0.0;
  for (int g = 0; g < 40; ++g) {
    // Caps a decade apart in [1e5, 1e9]: no near-ties anywhere.
    DemandGroup grp{rng.uniform(1e5, 1e9), static_cast<double>(rng.uniform_int(1, 4)),
                    rng.uniform_int(100, 5000)};
    groups.push_back(grp);
    cap_sum += grp.cap * static_cast<double>(grp.count);
  }
  WaterfillSolver solver;
  std::vector<BitsPerSecond> rates;
  solver.solve_dist(0.35 * cap_sum, groups, rates);
  const auto& st = solver.stats();
  EXPECT_GT(st.rounds, 0u);
  EXPECT_GT(st.certified_rounds, 0u);
  EXPECT_EQ(st.exact_rounds, 0u) << "separated grid should never need replay";
  EXPECT_LE(st.rounds, groups.size() + 1);
  check_dist(0.35 * cap_sum, groups, solver, "separated grid");
}

// --- integration with the reference loop and the arbiter -----------------

// Grouped submission is a drop-in for per-flow submission: same joint
// allocation, same slices, same total, bit for bit.
TEST(Waterfill, ArbiterGroupedSubmissionMatchesFlatSubmission) {
  Rng rng(0xA5B1);
  for (int round = 0; round < 10; ++round) {
    const int tenants = static_cast<int>(rng.uniform_int(1, 6));
    std::vector<std::vector<DemandGroup>> per_tenant;
    for (int t = 0; t < tenants; ++t) {
      std::vector<DemandGroup> groups;
      const int ng = static_cast<int>(rng.uniform_int(1, 8));
      for (int g = 0; g < ng; ++g) {
        groups.push_back({rng.uniform(1e5, 1e9),
                          static_cast<double>(rng.uniform_int(1, 4)),
                          rng.uniform_int(1, 400)});
      }
      per_tenant.push_back(std::move(groups));
    }
    const double capacity = rng.uniform(1e8, 1e12);

    LinkArbiter flat;
    flat.begin_round(capacity);
    std::vector<std::vector<Demand>> expansions;
    for (const auto& groups : per_tenant) expansions.push_back(expand(groups));
    for (const auto& e : expansions) flat.submit(e);
    flat.allocate();

    LinkArbiter grouped;
    grouped.begin_round(capacity);
    for (const auto& groups : per_tenant) grouped.submit_groups(groups);
    grouped.allocate();

    ASSERT_EQ(grouped.total(), flat.total()) << "round " << round;
    for (int t = 0; t < tenants; ++t) {
      const auto a = flat.slice(static_cast<std::size_t>(t));
      const auto b = grouped.slice(static_cast<std::size_t>(t));
      ASSERT_EQ(a.size(), b.size());
      ASSERT_EQ(a.size(), expansions[static_cast<std::size_t>(t)].size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(b[i], a[i]) << "round " << round << " tenant " << t
                              << " flow " << i;
      }
    }
  }
}

// Solver reuse across differently-shaped calls must not leak state: a
// scratch is cheap state, not a cache (same rule FairShareScratch pins).
TEST(Waterfill, SolverReuseIsBitwiseIdentical) {
  Rng rng(0xF00D);
  WaterfillSolver reused;
  for (int round = 0; round < 60; ++round) {
    const int n = static_cast<int>(rng.uniform_int(0, 600));
    std::vector<Demand> d;
    for (int i = 0; i < n; ++i) {
      d.push_back({rng.uniform(1e5, 1e9), static_cast<double>(rng.uniform_int(1, 4))});
    }
    const double capacity = rng.uniform(1e6, 1e12);
    WaterfillSolver fresh;
    std::vector<BitsPerSecond> a, b;
    const double ta = reused.solve(capacity, d, a);
    const double tb = fresh.solve(capacity, d, b);
    ASSERT_EQ(ta, tb) << "round " << round;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "round " << round << " flow " << i;
    }
  }
}

}  // namespace
}  // namespace eadt::net
