#include "core/model_based.hpp"

#include <gtest/gtest.h>

#include "baselines/baselines.hpp"
#include "core/algorithms.hpp"
#include "exp/runner.hpp"

namespace eadt::core {
namespace {

TEST(ThroughputCurve, RecoversASaturatingLaw) {
  // Synthesize T(c) = 8000 * c / (c + 3) and fit it back.
  std::vector<std::pair<int, double>> probes;
  for (int c : {1, 4, 8, 12}) {
    probes.emplace_back(c, 8000.0 * c / (c + 3.0));
  }
  const auto curve = fit_throughput_curve(probes);
  ASSERT_TRUE(curve.has_value());
  EXPECT_NEAR(curve->t_max, 8000.0, 80.0);
  EXPECT_NEAR(curve->k, 3.0, 0.1);
  EXPECT_NEAR(curve->predict(6), 8000.0 * 6 / 9.0, 60.0);
}

TEST(ThroughputCurve, RejectsDegenerateInput) {
  std::vector<std::pair<int, double>> one{{4, 500.0}};
  EXPECT_FALSE(fit_throughput_curve(one).has_value());
  std::vector<std::pair<int, double>> zeros{{1, 0.0}, {2, 0.0}};
  EXPECT_FALSE(fit_throughput_curve(zeros).has_value());
  // Decreasing data (LAN thrash) linearises to a non-positive intercept.
  std::vector<std::pair<int, double>> falling{{1, 800.0}, {6, 400.0}, {12, 250.0}};
  const auto curve = fit_throughput_curve(falling);
  if (curve) {
    EXPECT_GT(curve->t_max, 0.0);  // if it fits at all, it is sane
  }
}

TEST(PowerCurve, RecoversAQuadratic) {
  std::vector<std::pair<int, double>> probes;
  for (int c : {1, 6, 12}) {
    probes.emplace_back(c, 40.0 + 5.0 * c + 0.4 * c * c);
  }
  const auto curve = fit_power_curve(probes);
  ASSERT_TRUE(curve.has_value());
  EXPECT_NEAR(curve->p0, 40.0, 1e-6);
  EXPECT_NEAR(curve->p1, 5.0, 1e-6);
  EXPECT_NEAR(curve->p2, 0.4, 1e-6);
}

TEST(PowerCurve, TwoLevelsFallBackToALine) {
  std::vector<std::pair<int, double>> probes{{1, 50.0}, {1, 52.0}, {8, 120.0}};
  const auto curve = fit_power_curve(probes);
  ASSERT_TRUE(curve.has_value());
  EXPECT_DOUBLE_EQ(curve->p2, 0.0);
  EXPECT_GT(curve->p1, 0.0);
}

TEST(BestRatioLevel, FindsTheAnalyticOptimum) {
  // T(c) saturating with k=3, P(c) quadratic: ratio peaks in the interior.
  ThroughputCurve t{8000.0, 3.0};
  PowerCurve p{40.0, 2.0, 0.8};
  const int best = best_ratio_level(t, p, 20);
  EXPECT_GT(best, 1);
  EXPECT_LT(best, 20);
  // Verify against brute force.
  double best_ratio = -1;
  int brute = 1;
  for (int c = 1; c <= 20; ++c) {
    const double r = t.predict(c) / p.predict(c);
    if (r > best_ratio) {
      best_ratio = r;
      brute = c;
    }
  }
  EXPECT_EQ(best, brute);
}

// End-to-end: model-based tuning vs HTEE on a scaled XSEDE testbed.
class ModelBasedEndToEnd : public ::testing::Test {
 protected:
  static testbeds::Testbed scaled_xsede() {
    return testbeds::scaled(testbeds::xsede(), 4);
  }
};

TEST_F(ModelBasedEndToEnd, ThreeProbesLandNearTheBruteForceOptimum) {
  const auto t = scaled_xsede();
  const auto ds = t.make_dataset();
  proto::SessionConfig cfg;
  cfg.sample_interval = 1.0;

  ModelBasedController ctl(12);
  EXPECT_EQ(ctl.probe_count(), 3);
  proto::TransferSession session(t.env, ds, plan_htee(t.env, ds, 12), cfg);
  const auto r = session.run(&ctl);
  ASSERT_TRUE(r.completed);
  ASSERT_TRUE(ctl.search_finished());

  // Compare the chosen level's standalone efficiency to the brute force best.
  double best_bf = 0.0;
  double chosen_bf = 0.0;
  for (int level = 1; level <= 12; ++level) {
    const auto out = exp::run_algorithm(exp::Algorithm::kBf, t, ds, level, cfg);
    best_bf = std::max(best_bf, out.ratio());
    if (level == ctl.chosen_level()) chosen_bf = out.ratio();
  }
  EXPECT_GT(chosen_bf, best_bf * 0.75)
      << "chose " << ctl.chosen_level();
}

TEST_F(ModelBasedEndToEnd, HandlesTheLanWhereCurvesInvert) {
  const auto t = testbeds::scaled(testbeds::didclab(), 8);
  const auto ds = t.make_dataset();
  proto::SessionConfig cfg;
  cfg.sample_interval = 1.0;
  ModelBasedController ctl(12);
  proto::TransferSession session(t.env, ds, baselines::plan_promc(t.env, ds, 12), cfg);
  const auto r = session.run(&ctl);
  EXPECT_TRUE(r.completed);
  // On the thrashing single disk the best level is low.
  EXPECT_LE(ctl.chosen_level(), 4);
}

TEST_F(ModelBasedEndToEnd, DeterministicChoice) {
  const auto t = scaled_xsede();
  const auto ds = t.make_dataset();
  proto::SessionConfig cfg;
  cfg.sample_interval = 1.0;
  ModelBasedController c1(12), c2(12);
  proto::TransferSession s1(t.env, ds, plan_htee(t.env, ds, 12), cfg);
  proto::TransferSession s2(t.env, ds, plan_htee(t.env, ds, 12), cfg);
  (void)s1.run(&c1);
  (void)s2.run(&c2);
  EXPECT_EQ(c1.chosen_level(), c2.chosen_level());
}

}  // namespace
}  // namespace eadt::core
