// Cross-cutting invariants, swept over (testbed x algorithm x concurrency)
// with parameterized gtest. These are the contracts every schedule must
// satisfy regardless of tuning: byte conservation, energy accounting,
// physical bounds, determinism, and graceful behaviour under preemption.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "exp/sweep.hpp"
#include "net/fair_share.hpp"
#include "util/rng.hpp"

namespace eadt::exp {
namespace {

// Small datasets keep the sweep fast.
testbeds::Testbed tiny(testbeds::Testbed t) {
  return testbeds::scaled(std::move(t), 64);
}

testbeds::Testbed testbed_by_index(int i) {
  switch (i) {
    case 0: return tiny(testbeds::xsede());
    case 1: return tiny(testbeds::futuregrid());
    default: return tiny(testbeds::didclab());
  }
}

class RunInvariants
    : public ::testing::TestWithParam<std::tuple<int, Algorithm, int>> {};

TEST_P(RunInvariants, HoldEverywhere) {
  const auto [tb_index, algorithm, concurrency] = GetParam();
  const auto testbed = testbed_by_index(tb_index);
  const auto dataset = testbed.make_dataset();
  proto::SessionConfig cfg;
  cfg.sample_interval = 1.0;

  const auto out = run_algorithm(algorithm, testbed, dataset, concurrency, cfg);
  const auto& r = out.result;

  // 1. Completion and byte conservation.
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.bytes, dataset.total_bytes());

  // 2. Physical bounds.
  EXPECT_GT(r.duration, 0.0);
  EXPECT_LE(r.avg_throughput(), testbed.env.path.bandwidth * 1.001);
  EXPECT_GT(r.end_system_energy, 0.0);
  EXPECT_GT(r.network_energy, 0.0);

  // 3. Per-server energy sums to the total; active times within duration.
  Joules sum = 0.0;
  for (const auto& side : {r.source_servers, r.destination_servers}) {
    for (const auto& s : side) {
      EXPECT_GE(s.joules, 0.0);
      EXPECT_GE(s.active_time, 0.0);
      EXPECT_LE(s.active_time, r.duration + cfg.tick + 1e-6);
      sum += s.joules;
    }
  }
  EXPECT_NEAR(sum, r.end_system_energy, r.end_system_energy * 1e-9);

  // 4. Samples tile the run: bytes and energy add up, windows are ordered.
  Bytes sample_bytes = 0;
  Joules sample_energy = 0.0;
  Seconds prev_end = 0.0;
  for (const auto& s : r.samples) {
    EXPECT_NEAR(s.window_start, prev_end, 1e-6);
    EXPECT_GE(s.window_end, s.window_start);
    EXPECT_GE(s.active_channels, 0);
    sample_bytes += s.bytes;
    sample_energy += s.end_system_energy;
    prev_end = s.window_end;
  }
  EXPECT_EQ(sample_bytes, r.bytes);
  EXPECT_NEAR(sample_energy, r.end_system_energy, r.end_system_energy * 1e-9);

  // 5. Determinism: the identical run reproduces bit-identical results.
  const auto again = run_algorithm(algorithm, testbed, dataset, concurrency, cfg);
  EXPECT_DOUBLE_EQ(again.result.duration, r.duration);
  EXPECT_DOUBLE_EQ(again.result.end_system_energy, r.end_system_energy);
  EXPECT_EQ(again.result.bytes, r.bytes);
  EXPECT_EQ(again.chosen_concurrency, out.chosen_concurrency);
}

std::string invariant_case_name(
    const ::testing::TestParamInfo<std::tuple<int, Algorithm, int>>& info) {
  static constexpr const char* kTb[] = {"Xsede", "Futuregrid", "Didclab"};
  return std::string(kTb[std::get<0>(info.param)]) +
         to_string(std::get<1>(info.param)) + "Cc" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RunInvariants,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(Algorithm::kGuc, Algorithm::kGo,
                                         Algorithm::kSc, Algorithm::kMinE,
                                         Algorithm::kProMc, Algorithm::kHtee),
                       ::testing::Values(1, 5, 12)),
    invariant_case_name);

// A hostile controller that yanks concurrency around every window; bytes
// must still be conserved through all the preemption/requeue churn.
class Thrasher final : public proto::Controller {
 public:
  void on_sample(proto::TransferSession& session, const proto::SampleStats&) override {
    ++calls_;
    session.set_total_concurrency(calls_ % 2 == 0 ? 1 : 12);
  }

 private:
  int calls_ = 0;
};

class PreemptionChurn : public ::testing::TestWithParam<int> {};

TEST_P(PreemptionChurn, ConservesBytes) {
  const auto testbed = testbed_by_index(GetParam());
  const auto dataset = testbed.make_dataset();
  proto::SessionConfig cfg;
  cfg.sample_interval = 0.5;  // thrash hard
  Thrasher thrasher;
  proto::TransferSession session(
      testbed.env, dataset,
      baselines::plan_promc(testbed.env, dataset, 12), cfg);
  const auto r = session.run(&thrasher);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.bytes, dataset.total_bytes());
  EXPECT_LE(r.avg_throughput(), testbed.env.path.bandwidth * 1.001);
}

INSTANTIATE_TEST_SUITE_P(AllTestbeds, PreemptionChurn, ::testing::Values(0, 1, 2));

// Dataset-mix robustness: whatever the size distribution, the tuned
// algorithms complete and respect the link on the XSEDE path.
class MixRobustness : public ::testing::TestWithParam<int> {};

TEST_P(MixRobustness, TunedAlgorithmsHandleAnyMix) {
  auto testbed = tiny(testbeds::xsede());
  Rng rng(1000 + static_cast<std::uint64_t>(GetParam()));
  // Random recipe: 1-3 bands with random bounds and shares.
  proto::DatasetRecipe recipe;
  recipe.name = "fuzz";
  recipe.total_bytes = 1 * kGB + rng.uniform_int(0, 2 * kGB);
  const int n_bands = static_cast<int>(rng.uniform_int(1, 3));
  std::vector<double> shares;
  double sum = 0.0;
  for (int b = 0; b < n_bands; ++b) {
    shares.push_back(rng.uniform(0.1, 1.0));
    sum += shares.back();
  }
  for (int b = 0; b < n_bands; ++b) {
    const Bytes lo = 1 * kMB + rng.uniform_int(0, 30 * kMB);
    const Bytes hi = lo * 2 + rng.uniform_int(0, 300 * kMB);
    recipe.bands.push_back({lo, hi, shares[static_cast<std::size_t>(b)] / sum});
  }
  testbed.recipe = recipe;
  const auto dataset = testbed.make_dataset();
  ASSERT_GT(dataset.count(), 0u);

  for (const auto a : {Algorithm::kMinE, Algorithm::kProMc, Algorithm::kHtee}) {
    proto::SessionConfig cfg;
    cfg.sample_interval = 1.0;
    const auto out = run_algorithm(a, testbed, dataset, 8, cfg);
    EXPECT_TRUE(out.result.completed) << to_string(a) << " seed " << GetParam();
    EXPECT_EQ(out.result.bytes, dataset.total_bytes()) << to_string(a);
    EXPECT_LE(out.result.avg_throughput(), testbed.env.path.bandwidth * 1.001);
  }
}

INSTANTIATE_TEST_SUITE_P(FuzzedRecipes, MixRobustness, ::testing::Range(0, 8));

// --- sweep-seed properties -------------------------------------------------
// The sweep runner decorrelates grid points by hashing their coordinates
// (exp/sweep.hpp). Two properties make that trustworthy: distinct points
// never collide on derived seeds, and the hash is a pure function of the
// coordinates — so permuting the submission order permutes nothing.

TEST(SweepSeedProperties, DistinctGridPointsNeverCollide) {
  // 7 algorithms x 3 testbeds x 32 concurrency levels x 16 base seeds =
  // 10752 grid points, comfortably past the 10k the issue asks for.
  const char* testbed_names[] = {"xsede", "futuregrid", "didclab"};
  std::set<std::uint64_t> seeds;
  std::size_t points = 0;
  for (const auto a : {Algorithm::kGuc, Algorithm::kGo, Algorithm::kSc,
                       Algorithm::kMinE, Algorithm::kProMc, Algorithm::kHtee,
                       Algorithm::kBf}) {
    for (const char* tb : testbed_names) {
      for (int cc = 1; cc <= 32; ++cc) {
        for (std::uint64_t base = 0; base < 16; ++base) {
          const auto seed = derive_task_seed(to_string(a), tb, cc, base);
          EXPECT_NE(seed, 0u);
          seeds.insert(seed);
          ++points;
        }
      }
    }
  }
  EXPECT_GE(points, 10000u);
  EXPECT_EQ(seeds.size(), points) << "derived-seed collision in the grid";
}

TEST(SweepSeedProperties, SeedIsInsensitiveToFieldConcatenation) {
  // The coordinate fields are joined with a separator, so moving characters
  // across a field boundary must change the hash ("ab"+"c" != "a"+"bc").
  EXPECT_NE(derive_task_seed("ab", "c", 1, 0), derive_task_seed("a", "bc", 1, 0));
  EXPECT_NE(derive_task_seed("SC", "xsede1", 2, 0),
            derive_task_seed("SC", "xsede", 12, 0));
}

TEST(SweepSeedProperties, SubmissionOrderDoesNotChangeResults) {
  // Build a 12-task grid, then submit it in a scrambled order: each task's
  // result (matched by grid coordinates, index stripped) must be identical.
  const auto t = tiny(testbeds::xsede());
  const auto dataset = t.make_dataset();
  std::vector<SweepTask> tasks;
  for (const auto a : {Algorithm::kSc, Algorithm::kMinE, Algorithm::kProMc,
                       Algorithm::kHtee}) {
    for (const int cc : {1, 4, 12}) {
      SweepTask task;
      task.testbed = t;
      task.dataset = dataset;
      task.algorithm = a;
      task.concurrency = cc;
      task.seed = 99;  // exercise the derived-seed path too
      tasks.push_back(std::move(task));
    }
  }
  std::vector<SweepTask> shuffled = tasks;
  std::reverse(shuffled.begin(), shuffled.end());
  std::rotate(shuffled.begin(), shuffled.begin() + 5, shuffled.end());

  const auto original = SweepRunner(4).run(tasks);
  const auto permuted = SweepRunner(4).run(shuffled);

  // Key one result by its grid coordinates; the payload line minus the
  // leading submission index is the order-free fingerprint.
  const auto fingerprint = [](const SweepTaskResult& r) {
    const std::string line = sweep_payload({r});
    return line.substr(line.find(' ') + 1);
  };
  std::map<std::pair<Algorithm, int>, std::string> by_point;
  for (std::size_t i = 0; i < original.size(); ++i) {
    by_point[{tasks[i].algorithm, tasks[i].concurrency}] = fingerprint(original[i]);
  }
  ASSERT_EQ(by_point.size(), original.size());
  for (std::size_t i = 0; i < permuted.size(); ++i) {
    EXPECT_EQ(by_point.at({shuffled[i].algorithm, shuffled[i].concurrency}),
              fingerprint(permuted[i]))
        << to_string(shuffled[i].algorithm) << " cc=" << shuffled[i].concurrency;
  }
}

// --- waterfill solver properties -----------------------------------------
// The differential battery (test_waterfill.cpp) pins the solver to the
// reference loop bit for bit; these tests state what the allocation itself
// must look like, independent of any implementation: the max-min contract
// the paper's shared-link model is built on.

std::vector<net::DemandGroup> random_groups(Rng& rng, int max_groups) {
  std::vector<net::DemandGroup> groups;
  const int ng = static_cast<int>(rng.uniform_int(1, max_groups));
  for (int g = 0; g < ng; ++g) {
    groups.push_back({rng.uniform(1e5, 1e9),
                      static_cast<double>(rng.uniform_int(1, 6)),
                      rng.uniform_int(1, 500)});
  }
  return groups;
}

class WaterfillProperty : public ::testing::TestWithParam<int> {};

// Work conservation and cap respect: the fill places min(capacity, demand)
// in aggregate, and no member ever exceeds its own cap — exactly, not
// approximately, because a cap is assigned by copy, never recomputed.
TEST_P(WaterfillProperty, WorkConservingAndCapRespecting) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151ULL + 29);
  net::WaterfillSolver solver;
  std::vector<BitsPerSecond> rates;
  for (int round = 0; round < 20; ++round) {
    const auto groups = random_groups(rng, 24);
    double agg = 0.0;
    for (const auto& g : groups) agg += g.cap * static_cast<double>(g.count);
    const double capacity = agg * rng.uniform(0.05, 1.5);
    const double total = solver.solve_dist(capacity, groups, rates);

    double member_sum = 0.0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      EXPECT_GE(rates[g], 0.0);
      EXPECT_LE(rates[g], groups[g].cap);  // exact: caps are copied, not derived
      member_sum += rates[g] * static_cast<double>(groups[g].count);
    }
    const double expect = std::min(capacity, agg);
    EXPECT_NEAR(total, expect, std::max(1.0, expect * 1e-9));
    EXPECT_NEAR(member_sum, total, std::max(1.0, total * 1e-9));
  }
}

// Raising one group's weight never lowers its own per-member rate and never
// raises anyone else's — max-min fairness is monotone in weight.
TEST_P(WaterfillProperty, WeightMonotonicity) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2749ULL + 7);
  net::WaterfillSolver solver;
  std::vector<BitsPerSecond> base, bumped;
  for (int round = 0; round < 10; ++round) {
    auto groups = random_groups(rng, 16);
    double agg = 0.0;
    for (const auto& g : groups) agg += g.cap * static_cast<double>(g.count);
    const double capacity = agg * rng.uniform(0.2, 0.9);
    solver.solve_dist(capacity, groups, base);

    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, groups.size() - 1));
    groups[pick].weight *= rng.uniform(1.5, 4.0);
    solver.solve_dist(capacity, groups, bumped);

    // Monotone up to rounding: a changed weight reshuffles every round's
    // weight sum, so equality holds only to last-ulp noise at rate scale.
    const auto tol = [](double v) { return std::max(1e-6, v * 1e-9); };
    EXPECT_GE(bumped[pick], base[pick] - tol(base[pick]));
    for (std::size_t g = 0; g < groups.size(); ++g) {
      if (g == pick) continue;
      EXPECT_LE(bumped[g], base[g] + tol(base[g]));
    }
  }
}

// Permuting the groups permutes the rates: submission order is bookkeeping,
// not policy. Order can shift last-ulp rounding, so this is a near-equality
// (the bitwise contract applies to a FIXED order; see test_waterfill.cpp).
TEST_P(WaterfillProperty, PermutationInvariance) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 911ULL + 5);
  net::WaterfillSolver solver;
  std::vector<BitsPerSecond> a, b;
  for (int round = 0; round < 10; ++round) {
    const auto groups = random_groups(rng, 16);
    double agg = 0.0;
    for (const auto& g : groups) agg += g.cap * static_cast<double>(g.count);
    const double capacity = agg * rng.uniform(0.1, 1.2);
    solver.solve_dist(capacity, groups, a);

    std::vector<std::size_t> perm(groups.size());
    for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
    for (std::size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.uniform_int(0, i - 1)]);
    }
    std::vector<net::DemandGroup> shuffled;
    for (const std::size_t i : perm) shuffled.push_back(groups[i]);
    solver.solve_dist(capacity, shuffled, b);

    for (std::size_t i = 0; i < perm.size(); ++i) {
      const double tol = std::max(1e-6, a[perm[i]] * 1e-9);
      EXPECT_NEAR(b[i], a[perm[i]], tol) << "round " << round << " slot " << i;
    }
  }
}

// Collapse invariance, the dist-mode contract: k adjacent count-1 groups
// with identical (cap, weight) are BITWISE the same round as one
// (cap, weight, k) group — and the same as k duplicate scalar demands. This
// is what lets proto sessions and the bench submit collapsed rounds without
// perturbing a single golden.
TEST_P(WaterfillProperty, CollapseInvarianceIsBitwise) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 409ULL + 11);
  net::WaterfillSolver solver;
  for (int round = 0; round < 10; ++round) {
    const double cap = rng.uniform(1e6, 1e9);
    const double weight = static_cast<double>(rng.uniform_int(1, 4));
    const auto k = rng.uniform_int(2, 200);
    // A bystander group on each side so the cluster is interior.
    const net::DemandGroup before{rng.uniform(1e6, 1e9), 1.0, 3};
    const net::DemandGroup after{rng.uniform(1e6, 1e9), 2.0, 5};
    const double capacity =
        (before.cap * 3 + cap * static_cast<double>(k) + after.cap * 5) *
        rng.uniform(0.1, 1.2);

    std::vector<net::DemandGroup> collapsed{before, {cap, weight, k}, after};
    std::vector<net::DemandGroup> split{before};
    for (std::uint64_t i = 0; i < k; ++i) split.push_back({cap, weight, 1});
    split.push_back(after);

    std::vector<BitsPerSecond> cr, sr;
    const double ct = solver.solve_dist(capacity, collapsed, cr);
    const double st = solver.solve_dist(capacity, split, sr);
    ASSERT_EQ(ct, st) << "round " << round;
    ASSERT_EQ(sr.front(), cr.front());
    ASSERT_EQ(sr.back(), cr.back());
    for (std::uint64_t i = 0; i < k; ++i) {
      ASSERT_EQ(sr[1 + i], cr[1]) << "round " << round << " member " << i;
    }

    // Scalar duplicates route through the same collapse.
    std::vector<net::Demand> flat(static_cast<std::size_t>(k),
                                  net::Demand{cap, weight});
    flat.insert(flat.begin(), net::Demand{before.cap, before.weight});
    // (bystanders trimmed: the scalar list covers just the cluster edge case)
    std::vector<BitsPerSecond> fr;
    net::WaterfillSolver scalar_solver;
    scalar_solver.solve(capacity, flat, fr);
    for (std::size_t i = 2; i < fr.size(); ++i) {
      ASSERT_EQ(fr[i], fr[1]) << "duplicate members diverged";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WaterfillProperty, ::testing::Range(0, 8));

}  // namespace
}  // namespace eadt::exp
