// SLAEE end-to-end behaviour (Figures 5-7) on byte-scaled datasets.
#include <gtest/gtest.h>

#include <algorithm>

#include "exp/runner.hpp"

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

// The FutureGrid/DIDCLAB SLA cases start already satisfied (no ramp to
// amortise), so they use the paper's true 5-second windows — short scaled
// windows would react to sub-window lulls (e.g. a chunk's small-file tail)
// that 5-second smoothing hides.
proto::SessionConfig paper_cfg() { return proto::SessionConfig{}; }

class SlaXsede : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    testbed_ = new testbeds::Testbed(testbeds::scaled(testbeds::xsede(), 8));
    dataset_ = new proto::Dataset(testbed_->make_dataset());
    const auto promc = run_algorithm(Algorithm::kProMc, *testbed_, *dataset_, 12, fast_cfg());
    max_throughput_ = promc.result.avg_throughput();
    promc_energy_ = promc.energy();
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete testbed_;
    dataset_ = nullptr;
    testbed_ = nullptr;
  }
  static testbeds::Testbed* testbed_;
  static proto::Dataset* dataset_;
  static BitsPerSecond max_throughput_;
  static Joules promc_energy_;
};
testbeds::Testbed* SlaXsede::testbed_ = nullptr;
proto::Dataset* SlaXsede::dataset_ = nullptr;
BitsPerSecond SlaXsede::max_throughput_ = 0.0;
Joules SlaXsede::promc_energy_ = 0.0;

TEST_F(SlaXsede, ModerateTargetsAreDeliveredClosely) {
  // "SLAEE is able to achieve all SLA expectations within 7 % deviation"
  // (except the 95 % corner). We allow a slightly wider band on the
  // simulator but keep the structure: shortfall must stay small.
  for (double target : {80.0, 70.0, 50.0}) {
    const auto out =
        run_slaee(*testbed_, *dataset_, target, max_throughput_, 12, fast_cfg());
    EXPECT_TRUE(out.result.completed) << target;
    EXPECT_LT(out.shortfall_percent(), 12.0) << "target " << target << "%";
  }
}

TEST_F(SlaXsede, LowerTargetsUseLessEnergyThanProMcMax) {
  // Figure 5b: SLAEE cuts energy versus the ProMC maximum-throughput run,
  // by up to ~30 % at relaxed targets.
  const auto relaxed = run_slaee(*testbed_, *dataset_, 50.0, max_throughput_, 12, fast_cfg());
  EXPECT_LT(relaxed.energy(), promc_energy_);
}

TEST_F(SlaXsede, TighterTargetsNeedMoreConcurrency) {
  const auto t50 = run_slaee(*testbed_, *dataset_, 50.0, max_throughput_, 12, fast_cfg());
  const auto t90 = run_slaee(*testbed_, *dataset_, 90.0, max_throughput_, 12, fast_cfg());
  EXPECT_LE(t50.final_concurrency, t90.final_concurrency);
}

TEST_F(SlaXsede, NinetyFivePercentIsTheHardCorner) {
  // The paper could not deliver the 95 % target on XSEDE even at the
  // maximum concurrency; the run must still terminate.
  const auto out = run_slaee(*testbed_, *dataset_, 95.0, max_throughput_, 12, fast_cfg());
  EXPECT_TRUE(out.result.completed);
}

TEST(SlaFuturegrid, OvershootAtFiftyPercentTarget) {
  // Figure 6c: concurrency 1 already beats 50 % of max, so SLAEE overshoots
  // (deviation ~25 %) — it cannot go below one channel.
  auto t = testbeds::scaled(testbeds::futuregrid(), 4);
  const auto ds = t.make_dataset();
  const auto promc = run_algorithm(Algorithm::kProMc, t, ds, 12, paper_cfg());
  const auto out = run_slaee(t, ds, 50.0, promc.result.avg_throughput(), 12, paper_cfg());
  EXPECT_TRUE(out.result.completed);
  // SLAEE cannot go below its throughput floor: it parks at a minimal level
  // and overshoots the relaxed target by a wide margin (paper: ~25 %).
  EXPECT_LE(out.final_concurrency, 2);
  EXPECT_LT(out.shortfall_percent(), -10.0);  // well above target
}

TEST(SlaFuturegrid, EnergySavingsVersusProMc) {
  auto t = testbeds::scaled(testbeds::futuregrid(), 4);
  const auto ds = t.make_dataset();
  const auto promc = run_algorithm(Algorithm::kProMc, t, ds, 12, paper_cfg());
  const auto out = run_slaee(t, ds, 70.0, promc.result.avg_throughput(), 12, paper_cfg());
  EXPECT_LT(out.energy(), promc.energy() * 1.05);
}

TEST(SlaDidclab, LanTargetsOvershootMassively) {
  // Figure 7c: on the LAN concurrency 1 is optimal for everything, so low
  // targets are overshot by up to ~100 %.
  auto t = testbeds::scaled(testbeds::didclab(), 4);
  const auto ds = t.make_dataset();
  const auto promc = run_algorithm(Algorithm::kProMc, t, ds, 1, paper_cfg());
  const auto out = run_slaee(t, ds, 50.0, promc.result.avg_throughput(), 12, paper_cfg());
  EXPECT_TRUE(out.result.completed);
  EXPECT_EQ(out.final_concurrency, 1);
  EXPECT_GT(out.deviation_percent(), 30.0);
}

TEST(SlaOutcome, DeviationMath) {
  SlaOutcome o;
  o.target_throughput = mbps(1000.0);
  o.result.duration = 8.0;
  o.result.bytes = static_cast<Bytes>(900.0 * 1e6);  // 900 Mbps achieved
  o.result.completed = true;
  EXPECT_NEAR(o.deviation_percent(), 10.0, 1e-9);
  EXPECT_NEAR(o.shortfall_percent(), 10.0, 1e-9);
  o.result.bytes = static_cast<Bytes>(1200.0 * 1e6);  // 1200 Mbps: overshoot
  EXPECT_NEAR(o.deviation_percent(), 20.0, 1e-9);
  EXPECT_NEAR(o.shortfall_percent(), -20.0, 1e-9);
}

}  // namespace
}  // namespace eadt::exp
