// Integration tests: the paper's Section 3 claims as executable assertions,
// run on byte-scaled versions of the experiment datasets (same shape, fewer
// bytes, so the suite stays fast).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "exp/runner.hpp"
#include "power/device.hpp"

namespace eadt::exp {
namespace {

// Datasets are byte-scaled, so the adaptive algorithms' probe windows are
// scaled to match (5 s at paper scale ~ 1 s here); otherwise HTEE's search
// phase would dominate the shortened transfers.
proto::SessionConfig fast_cfg() {
  proto::SessionConfig cfg;
  cfg.sample_interval = 1.0;
  return cfg;
}

struct Sweep {
  std::map<int, RunOutcome> by_level;
};

Sweep sweep(Algorithm a, const testbeds::Testbed& t, const proto::Dataset& ds,
            std::initializer_list<int> levels) {
  Sweep s;
  for (int level : levels) s.by_level.emplace(level, run_algorithm(a, t, ds, level, fast_cfg()));
  return s;
}

class XsedeFigure2 : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // 40 GB: large enough that HTEE's probe phase has the same relative cost
    // as in the paper's 160 GB runs.
    testbed_ = new testbeds::Testbed(testbeds::scaled(testbeds::xsede(), 4));
    dataset_ = new proto::Dataset(testbed_->make_dataset());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete testbed_;
    dataset_ = nullptr;
    testbed_ = nullptr;
  }
  static testbeds::Testbed* testbed_;
  static proto::Dataset* dataset_;
};
testbeds::Testbed* XsedeFigure2::testbed_ = nullptr;
proto::Dataset* XsedeFigure2::dataset_ = nullptr;

TEST_F(XsedeFigure2, EveryAlgorithmMovesAllBytes) {
  for (Algorithm a : figure_algorithms()) {
    const auto out = run_algorithm(a, *testbed_, *dataset_, 8, fast_cfg());
    EXPECT_TRUE(out.result.completed) << to_string(a);
    EXPECT_EQ(out.result.bytes, dataset_->total_bytes()) << to_string(a);
  }
}

TEST_F(XsedeFigure2, ProMcHasHighestThroughputAtHighConcurrency) {
  const auto promc = run_algorithm(Algorithm::kProMc, *testbed_, *dataset_, 12, fast_cfg());
  for (Algorithm a : {Algorithm::kGuc, Algorithm::kGo, Algorithm::kSc, Algorithm::kMinE}) {
    const auto other = run_algorithm(a, *testbed_, *dataset_, 12, fast_cfg());
    EXPECT_GT(promc.throughput_mbps(), other.throughput_mbps()) << to_string(a);
  }
  // "ProMC can reach up to 7.5 Gbps" on the 10 Gbps link: at least 60 % here.
  EXPECT_GT(promc.throughput_mbps(), 6000.0);
}

TEST_F(XsedeFigure2, MinEConsumesLeastEnergyAcrossLevels) {
  // "MinE achieves lowest energy consumption almost at all concurrency
  // levels": strict at mid/high concurrency, where the contention premium
  // MinE avoids is real; near-tie tolerated at the low-concurrency corner.
  for (int level : {4, 8, 12}) {
    const auto mine = run_algorithm(Algorithm::kMinE, *testbed_, *dataset_, level, fast_cfg());
    const double slack = level <= 4 ? 1.10 : 1.0;
    for (Algorithm a : {Algorithm::kSc, Algorithm::kProMc}) {
      const auto other = run_algorithm(a, *testbed_, *dataset_, level, fast_cfg());
      EXPECT_LT(mine.energy(), other.energy() * slack)
          << to_string(a) << " at level " << level;
    }
  }
}

TEST_F(XsedeFigure2, ScYieldsMinELikeThroughputButMoreEnergy) {
  // "while MinE and SC yield close transfer throughput in all concurrency
  //  levels, SC consumes as much as 20 % more energy than MinE".
  const auto mine = run_algorithm(Algorithm::kMinE, *testbed_, *dataset_, 12, fast_cfg());
  const auto sc = run_algorithm(Algorithm::kSc, *testbed_, *dataset_, 12, fast_cfg());
  const double thr_ratio = sc.throughput_mbps() / mine.throughput_mbps();
  EXPECT_GT(thr_ratio, 0.6);
  EXPECT_LT(thr_ratio, 2.0);
  EXPECT_GT(sc.energy(), mine.energy() * 1.05);
}

TEST_F(XsedeFigure2, GoBurnsMoreEnergyThanScAtConcurrencyTwo) {
  // GO's two channels land on two DTN servers; SC packs them onto one.
  const auto go = run_algorithm(Algorithm::kGo, *testbed_, *dataset_, 2, fast_cfg());
  const auto sc = run_algorithm(Algorithm::kSc, *testbed_, *dataset_, 2, fast_cfg());
  EXPECT_GT(go.energy(), sc.energy() * 1.2);
}

TEST_F(XsedeFigure2, GucIsTheSlowBaseline) {
  const auto guc = run_algorithm(Algorithm::kGuc, *testbed_, *dataset_, 1, fast_cfg());
  const auto sc = run_algorithm(Algorithm::kSc, *testbed_, *dataset_, 1, fast_cfg());
  EXPECT_LT(guc.throughput_mbps(), sc.throughput_mbps());
}

TEST_F(XsedeFigure2, ProMcEnergyParabolaBottomsMidRange) {
  // Four-core DTNs: energy falls to concurrency ~4, then climbs (Eq. 2).
  const auto s = sweep(Algorithm::kProMc, *testbed_, *dataset_, {1, 4, 12});
  EXPECT_LT(s.by_level.at(4).energy(), s.by_level.at(1).energy());
  EXPECT_LT(s.by_level.at(4).energy(), s.by_level.at(12).energy());
}

TEST_F(XsedeFigure2, HteeTracksTheBruteForceOptimum) {
  std::map<int, double> bf;
  double best_bf = 0.0;
  for (int level : {1, 3, 5, 7, 9, 11, 13, 15, 17, 19}) {
    bf[level] = run_algorithm(Algorithm::kBf, *testbed_, *dataset_, level, fast_cfg()).ratio();
    best_bf = std::max(best_bf, bf[level]);
  }
  const auto htee = run_algorithm(Algorithm::kHtee, *testbed_, *dataset_, 12, fast_cfg());
  const auto mine = run_algorithm(Algorithm::kMinE, *testbed_, *dataset_, 12, fast_cfg());
  ASSERT_GT(best_bf, 0.0);
  // "the concurrency level chosen by HTEE can yield as much as 95 %
  //  throughput/energy efficiency compared to the best possible value": the
  //  claim is about the chosen level's efficiency (a BF run at that level).
  ASSERT_TRUE(bf.count(htee.chosen_concurrency))
      << "chosen level " << htee.chosen_concurrency << " not an odd probe";
  EXPECT_GT(bf[htee.chosen_concurrency], best_bf * 0.85);
  // The whole HTEE run, search phase included, still lands near the optimum.
  EXPECT_GT(htee.ratio(), best_bf * 0.70);
  // "MinE ... can only reach around 70 % of the best possible ratio".
  EXPECT_LT(mine.ratio(), best_bf * 0.95);
}

class DidclabFigure4 : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    testbed_ = new testbeds::Testbed(testbeds::scaled(testbeds::didclab(), 4));  // 10 GB
    dataset_ = new proto::Dataset(testbed_->make_dataset());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete testbed_;
    dataset_ = nullptr;
    testbed_ = nullptr;
  }
  static testbeds::Testbed* testbed_;
  static proto::Dataset* dataset_;
};
testbeds::Testbed* DidclabFigure4::testbed_ = nullptr;
proto::Dataset* DidclabFigure4::dataset_ = nullptr;

TEST_F(DidclabFigure4, ConcurrencyHurtsOnSingleDiskLan) {
  const auto s = sweep(Algorithm::kProMc, *testbed_, *dataset_, {1, 4, 12});
  EXPECT_GT(s.by_level.at(1).throughput_mbps(), s.by_level.at(4).throughput_mbps());
  EXPECT_GT(s.by_level.at(4).throughput_mbps(), s.by_level.at(12).throughput_mbps());
  EXPECT_LT(s.by_level.at(1).energy(), s.by_level.at(12).energy());
}

TEST_F(DidclabFigure4, BestEfficiencyAtConcurrencyOne) {
  const auto s = sweep(Algorithm::kProMc, *testbed_, *dataset_, {1, 2, 6, 12});
  const double r1 = s.by_level.at(1).ratio();
  for (int level : {2, 6, 12}) {
    EXPECT_GE(r1, s.by_level.at(level).ratio()) << "level " << level;
  }
}

TEST_F(DidclabFigure4, HteePaysASearchPenaltyOnLan) {
  // HTEE probes high concurrency levels that are all bad here, so it lands
  // close to, but below, the tuned concurrency-1 run.
  const auto htee = run_algorithm(Algorithm::kHtee, *testbed_, *dataset_, 12, fast_cfg());
  const auto best = run_algorithm(Algorithm::kProMc, *testbed_, *dataset_, 1, fast_cfg());
  EXPECT_TRUE(htee.result.completed);
  EXPECT_LE(htee.ratio(), best.ratio());
  // But it still finds a low level rather than pinning to the maximum.
  EXPECT_LE(htee.chosen_concurrency, 5);
}

class FuturegridFigure3 : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // 10 GB
    testbed_ = new testbeds::Testbed(testbeds::scaled(testbeds::futuregrid(), 4));
    dataset_ = new proto::Dataset(testbed_->make_dataset());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete testbed_;
    dataset_ = nullptr;
    testbed_ = nullptr;
  }
  static testbeds::Testbed* testbed_;
  static proto::Dataset* dataset_;
};
testbeds::Testbed* FuturegridFigure3::testbed_ = nullptr;
proto::Dataset* FuturegridFigure3::dataset_ = nullptr;

TEST_F(FuturegridFigure3, TunedAlgorithmsSaturateTheGigabitLink) {
  const auto promc = run_algorithm(Algorithm::kProMc, *testbed_, *dataset_, 12, fast_cfg());
  const auto mine = run_algorithm(Algorithm::kMinE, *testbed_, *dataset_, 12, fast_cfg());
  const auto guc = run_algorithm(Algorithm::kGuc, *testbed_, *dataset_, 1, fast_cfg());
  // ProMC, MinE (and HTEE) comparable; GUC far behind.
  EXPECT_GT(promc.throughput_mbps(), 500.0);
  EXPECT_GT(mine.throughput_mbps(), promc.throughput_mbps() * 0.6);
  EXPECT_LT(guc.throughput_mbps(), promc.throughput_mbps() * 0.7);
}

TEST_F(FuturegridFigure3, EnergyDiffersEvenWhenThroughputIsClose) {
  const auto promc = run_algorithm(Algorithm::kProMc, *testbed_, *dataset_, 12, fast_cfg());
  const auto mine = run_algorithm(Algorithm::kMinE, *testbed_, *dataset_, 12, fast_cfg());
  EXPECT_LT(mine.energy(), promc.energy());
}

TEST(Figure10, EndSystemsDominateLoadDependentEnergy) {
  for (auto t : testbeds::all_testbeds()) {
    t.recipe.total_bytes /= 8;
    const auto ds = t.make_dataset();
    const auto out = run_algorithm(Algorithm::kHtee, t, ds, t.default_max_channels, fast_cfg());
    EXPECT_GT(out.result.end_system_energy, out.result.network_energy)
        << t.env.name;
  }
}

TEST(Figure10, MetroRoutersMakeFuturegridNetworkHeaviest) {
  auto per_byte = [](const testbeds::Testbed& t) {
    return power::route_transfer_energy(t.env.route, 1 * kGB, t.env.path.mtu);
  };
  const double xs = per_byte(testbeds::xsede());
  const double fg = per_byte(testbeds::futuregrid());
  const double dl = per_byte(testbeds::didclab());
  EXPECT_GT(fg, xs);
  EXPECT_GT(xs, dl);
}

}  // namespace
}  // namespace eadt::exp
