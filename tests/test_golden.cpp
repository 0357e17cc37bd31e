// Golden regression pins: the full-scale Figure 2 headline numbers, frozen
// after calibration. These are deliberately tighter than the qualitative
// integration tests — their job is to catch *accidental* drift in the model
// (a changed knob, a refactor that shifts rates), not to assert the paper.
// If you change the model on purpose, re-run bench/fig2_xsede and update the
// constants together with EXPERIMENTS.md.
#include <gtest/gtest.h>

#include <cstdio>

#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "util/rng.hpp"

namespace eadt::exp {
namespace {

struct Golden {
  Algorithm algorithm;
  int concurrency;
  double mbps;
  double joule;
};

// bench/fig2_xsede at paper scale (160 GB), recorded 2026-07-06.
constexpr Golden kFigure2[] = {
    {Algorithm::kGuc, 1, 761, 56188},
    {Algorithm::kGo, 2, 2337, 37436},
    {Algorithm::kSc, 2, 2579, 23277},
    {Algorithm::kSc, 12, 7972, 30283},
    {Algorithm::kMinE, 4, 4819, 21601},
    {Algorithm::kMinE, 12, 4819, 21601},
    {Algorithm::kProMc, 1, 1309, 35059},
    {Algorithm::kProMc, 4, 4921, 20310},
    {Algorithm::kProMc, 12, 7967, 31116},
};

class GoldenFigure2 : public ::testing::TestWithParam<Golden> {
 protected:
  static void SetUpTestSuite() {
    testbed_ = new testbeds::Testbed(testbeds::xsede());
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
testbeds::Testbed* GoldenFigure2::testbed_ = nullptr;
proto::Dataset* GoldenFigure2::dataset_ = nullptr;

TEST_P(GoldenFigure2, MatchesRecordedRun) {
  const Golden g = GetParam();
  const auto out = run_algorithm(g.algorithm, *testbed_, *dataset_, g.concurrency);
  // The engine is deterministic, so 2 % headroom is pure future-proofing
  // against innocuous refactors (tick boundary shifts etc.).
  EXPECT_NEAR(out.throughput_mbps(), g.mbps, g.mbps * 0.02)
      << to_string(g.algorithm) << " cc=" << g.concurrency;
  EXPECT_NEAR(out.energy(), g.joule, g.joule * 0.02)
      << to_string(g.algorithm) << " cc=" << g.concurrency;
}

INSTANTIATE_TEST_SUITE_P(PaperScaleXsede, GoldenFigure2, ::testing::ValuesIn(kFigure2),
                         [](const ::testing::TestParamInfo<Golden>& info) {
                           return std::string(to_string(info.param.algorithm)) + "Cc" +
                                  std::to_string(info.param.concurrency);
                         });


// The same pins for the 1 Gbps testbeds (bench/fig3_futuregrid,
// bench/fig4_didclab at paper scale, recorded 2026-07-06).
constexpr Golden kFigure3[] = {
    {Algorithm::kGuc, 1, 614, 24962},
    {Algorithm::kGo, 2, 842, 24168},
    {Algorithm::kMinE, 4, 872, 21600},
    {Algorithm::kProMc, 4, 933, 21099},
};

constexpr Golden kFigure4[] = {
    {Algorithm::kProMc, 1, 764, 27090},
    {Algorithm::kProMc, 4, 526, 32096},
    {Algorithm::kMinE, 4, 764, 27090},
    {Algorithm::kGo, 2, 705, 25221},
};

class GoldenFigure3 : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenFigure3, MatchesRecordedRun) {
  static const testbeds::Testbed testbed = testbeds::futuregrid();
  static const proto::Dataset dataset = testbed.make_dataset();
  const Golden g = GetParam();
  const auto out = run_algorithm(g.algorithm, testbed, dataset, g.concurrency);
  EXPECT_NEAR(out.throughput_mbps(), g.mbps, g.mbps * 0.02);
  EXPECT_NEAR(out.energy(), g.joule, g.joule * 0.02);
}

INSTANTIATE_TEST_SUITE_P(PaperScaleFuturegrid, GoldenFigure3,
                         ::testing::ValuesIn(kFigure3),
                         [](const ::testing::TestParamInfo<Golden>& info) {
                           return std::string(to_string(info.param.algorithm)) + "Cc" +
                                  std::to_string(info.param.concurrency);
                         });

class GoldenFigure4 : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenFigure4, MatchesRecordedRun) {
  static const testbeds::Testbed testbed = testbeds::didclab();
  static const proto::Dataset dataset = testbed.make_dataset();
  const Golden g = GetParam();
  const auto out = run_algorithm(g.algorithm, testbed, dataset, g.concurrency);
  EXPECT_NEAR(out.throughput_mbps(), g.mbps, g.mbps * 0.02);
  EXPECT_NEAR(out.energy(), g.joule, g.joule * 0.02);
}

INSTANTIATE_TEST_SUITE_P(PaperScaleDidclab, GoldenFigure4,
                         ::testing::ValuesIn(kFigure4),
                         [](const ::testing::TestParamInfo<Golden>& info) {
                           return std::string(to_string(info.param.algorithm)) + "Cc" +
                                  std::to_string(info.param.concurrency);
                         });

// Exact bytes, not 2 %: a digest of the canonical sweep payload for a small
// grid chosen so that every branch of the per-tick rate pipeline runs,
// including the miss path of each value it reuses within a tick or a
// session. Any change that moves a single bit of any task's result moves
// the digest.
//   * XSEDE GO: round-robin placement over four servers per side, so busy
//     channels alternate between servers;
//   * XSEDE ProMC cc = 12: chunks with different parallelism and pipelining,
//     files on both sides of the 50 MB bandwidth-delay product;
//   * DIDCLAB MinE: a 25 KB bandwidth-delay product, below the 64 KiB
//     initial congestion window;
//   * XSEDE ProMC under a source-server outage (channels move servers
//     mid-run) and checksum failures (rejected files re-enter their queue at
//     full size);
//   * XSEDE ProMC under a destination-server outage: channels keep their
//     source server and change their destination one;
//   * GO on XSEDE-like sites where one side has a single DTN and the other
//     two unequal ones (the second streams from disk at half speed), so
//     round-robin channels share one end's server and differ at the other.
proto::Dataset small_dataset(Bytes total, Bytes small_max, Bytes large_max,
                             std::uint64_t seed) {
  proto::DatasetRecipe recipe;
  recipe.name = "pin";
  recipe.total_bytes = total;
  recipe.bands = {{3 * kMB, small_max, 0.3},
                  {small_max, large_max / 2, 0.35},
                  {large_max / 2, large_max, 0.35}};
  return proto::generate_dataset(recipe, Rng(seed));
}

TEST(GoldenPayload, SmallGridDigestIsPinned) {
  const auto xsede = testbeds::xsede();
  const auto didclab = testbeds::didclab();
  const auto xsede_ds = small_dataset(4000 * kMB, 20 * kMB, 600 * kMB, 42);
  const auto didclab_ds = small_dataset(1000 * kMB, 10 * kMB, 200 * kMB, 43);

  const auto task = [](const testbeds::Testbed& t, const proto::Dataset& ds,
                       Algorithm a, int cc) {
    SweepTask task;
    task.testbed = t;
    task.dataset = ds;
    task.algorithm = a;
    task.concurrency = cc;
    task.config.sample_interval = 1.0;
    return task;
  };
  std::vector<SweepTask> tasks;
  tasks.push_back(task(xsede, xsede_ds, Algorithm::kGo, 4));
  tasks.push_back(task(xsede, xsede_ds, Algorithm::kProMc, 12));
  tasks.push_back(task(didclab, didclab_ds, Algorithm::kMinE, 4));
  auto faulted = task(xsede, xsede_ds, Algorithm::kProMc, 6);
  faulted.faults.outages.push_back({true, 0, 1.0, 2.0});
  faulted.faults.stochastic.checksum_failure_prob = 0.05;
  faulted.faults.seed = 11;
  tasks.push_back(std::move(faulted));
  auto dst_outage = task(xsede, xsede_ds, Algorithm::kProMc, 12);
  dst_outage.faults.outages.push_back({false, 0, 0.5, 1.0});
  tasks.push_back(std::move(dst_outage));
  for (const bool slow_source : {false, true}) {
    auto uneven = xsede;
    auto& one = slow_source ? uneven.env.destination : uneven.env.source;
    auto& two = slow_source ? uneven.env.source : uneven.env.destination;
    one.servers.resize(1);
    two.servers.resize(2);
    two.servers[1].per_stream_disk /= 2.0;
    tasks.push_back(task(uneven, xsede_ds, Algorithm::kGo, 2));
  }

  const auto results = SweepRunner(1).run(tasks);
  for (const auto& r : results) {
    ASSERT_TRUE(r.result().completed) << r.index;
  }
  // The faulted legs really took their fault paths.
  EXPECT_EQ(results[3].result().faults.server_outages, 1);
  EXPECT_GT(results[3].result().faults.checksum_failures, 0);
  EXPECT_EQ(results[4].result().faults.server_outages, 1);

  const std::string payload = sweep_payload(results);
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(fnv1a64(payload)));
  EXPECT_STREQ(digest, "8a39001295b51edf") << payload;
}

}  // namespace
}  // namespace eadt::exp
