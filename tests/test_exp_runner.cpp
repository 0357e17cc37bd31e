#include "exp/runner.hpp"

#include <gtest/gtest.h>

namespace eadt::exp {
namespace {

testbeds::Testbed tiny_didclab() { return testbeds::scaled(testbeds::didclab(), 64); }

TEST(Runner, AlgorithmNames) {
  EXPECT_STREQ(to_string(Algorithm::kGuc), "GUC");
  EXPECT_STREQ(to_string(Algorithm::kGo), "GO");
  EXPECT_STREQ(to_string(Algorithm::kSc), "SC");
  EXPECT_STREQ(to_string(Algorithm::kMinE), "MinE");
  EXPECT_STREQ(to_string(Algorithm::kProMc), "ProMC");
  EXPECT_STREQ(to_string(Algorithm::kHtee), "HTEE");
  EXPECT_STREQ(to_string(Algorithm::kBf), "BF");
}

TEST(Runner, FigureAlgorithmListMatchesThePaperOrder) {
  const auto algorithms = figure_algorithms();
  ASSERT_EQ(algorithms.size(), 6u);
  EXPECT_EQ(algorithms.front(), Algorithm::kGuc);
  EXPECT_EQ(algorithms.back(), Algorithm::kHtee);
}

TEST(Runner, SweepLevelLists) {
  EXPECT_EQ(figure_concurrency_levels(), (std::vector<int>{1, 2, 4, 6, 8, 10, 12}));
  const auto bf = bf_concurrency_levels();
  ASSERT_EQ(bf.size(), 20u);
  EXPECT_EQ(bf.front(), 1);
  EXPECT_EQ(bf.back(), 20);
  EXPECT_EQ(sla_target_percents(), (std::vector<double>{95, 90, 80, 70, 50}));
}

TEST(Runner, OutcomeAccessors) {
  RunOutcome out;
  out.result.duration = 4.0;
  out.result.bytes = static_cast<Bytes>(1e9);  // 2000 Mbps
  out.result.end_system_energy = 500.0;
  EXPECT_NEAR(out.throughput_mbps(), 2000.0, 1e-9);
  EXPECT_DOUBLE_EQ(out.energy(), 500.0);
  EXPECT_NEAR(out.ratio(), 2e9 / 500.0, 1e-6);
}

TEST(Runner, GucAndGoIgnoreTheConcurrencyKnob) {
  const auto t = tiny_didclab();
  const auto ds = t.make_dataset();
  for (const auto a : {Algorithm::kGuc, Algorithm::kGo}) {
    const auto at1 = run_algorithm(a, t, ds, 1);
    const auto at12 = run_algorithm(a, t, ds, 12);
    EXPECT_DOUBLE_EQ(at1.result.duration, at12.result.duration) << to_string(a);
    EXPECT_DOUBLE_EQ(at1.result.end_system_energy, at12.result.end_system_energy)
        << to_string(a);
  }
}

TEST(Runner, ChosenConcurrencyReporting) {
  const auto t = tiny_didclab();
  const auto ds = t.make_dataset();
  EXPECT_EQ(run_algorithm(Algorithm::kGuc, t, ds, 7).chosen_concurrency, 1);
  EXPECT_EQ(run_algorithm(Algorithm::kGo, t, ds, 7).chosen_concurrency, 2);
  EXPECT_EQ(run_algorithm(Algorithm::kSc, t, ds, 7).chosen_concurrency, 7);
  proto::SessionConfig cfg;
  cfg.sample_interval = 0.5;
  const auto htee = run_algorithm(Algorithm::kHtee, t, ds, 7, cfg);
  EXPECT_GE(htee.chosen_concurrency, 1);
  EXPECT_LE(htee.chosen_concurrency, 7);
}

TEST(Runner, BfMatchesProMcExactly) {
  const auto t = tiny_didclab();
  const auto ds = t.make_dataset();
  const auto bf = run_algorithm(Algorithm::kBf, t, ds, 4);
  const auto promc = run_algorithm(Algorithm::kProMc, t, ds, 4);
  EXPECT_DOUBLE_EQ(bf.result.duration, promc.result.duration);
  EXPECT_DOUBLE_EQ(bf.result.end_system_energy, promc.result.end_system_energy);
}

TEST(Runner, SlaOutcomeShortfallSigns) {
  const auto t = tiny_didclab();
  const auto ds = t.make_dataset();
  const auto promc = run_algorithm(Algorithm::kProMc, t, ds, 1);
  // A 10 % target is trivially overshot on this LAN.
  const auto out = run_slaee(t, ds, 10.0, promc.result.avg_throughput(), 4);
  EXPECT_TRUE(out.result.completed);
  EXPECT_LT(out.shortfall_percent(), 0.0);
  EXPECT_GT(out.deviation_percent(), 0.0);
  EXPECT_NEAR(out.deviation_percent(), -out.shortfall_percent(), 1e-9);
}

}  // namespace
}  // namespace eadt::exp
