// Golden regression pins: the full-scale Figure 2 headline numbers, frozen
// after calibration. These are deliberately tighter than the qualitative
// integration tests — their job is to catch *accidental* drift in the model
// (a changed knob, a refactor that shifts rates), not to assert the paper.
// If you change the model on purpose, re-run bench/fig2_xsede and update the
// constants together with EXPERIMENTS.md.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "baselines/baselines.hpp"
#include "exp/runner.hpp"
#include "exp/scheduler.hpp"
#include "exp/sweep.hpp"
#include "proto/session.hpp"
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

std::string hex_digest(const std::string& bytes) {
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(fnv1a64(bytes)));
  return digest;
}

std::string hexf(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

// The same exactness for every write to the channel layout the rate and
// energy pipeline reads (which channels exist, where they run, with how many
// streams, and which are down):
//   * stochastic channel drops, once resumed from restart markers and once
//     retransmitted whole;
//   * a retry budget of zero, so every drop quarantines (erases) its slot;
//   * a source outage on a side with one DTN strands every channel until
//     the server recovers;
//   * HTEE and SLAEE, whose controllers retarget the concurrency mid-run.
TEST(GoldenPayload, LayoutChangeGridDigestIsPinned) {
  const auto xsede = testbeds::xsede();
  const auto ds = small_dataset(3000 * kMB, 20 * kMB, 400 * kMB, 44);
  const auto task = [&](const testbeds::Testbed& t, Algorithm a, int cc) {
    SweepTask task;
    task.testbed = t;
    task.dataset = ds;
    task.algorithm = a;
    task.concurrency = cc;
    task.config.sample_interval = 1.0;
    // The drop process runs until this guard, long after the transfer ends.
    task.config.max_sim_time = 600.0;
    return task;
  };
  std::vector<SweepTask> tasks;
  for (const bool markers : {true, false}) {
    auto drops = task(xsede, Algorithm::kProMc, 8);
    drops.faults.stochastic.channel_drop_rate = 2.0;
    drops.faults.retry.restart_markers = markers;
    drops.faults.retry.backoff_initial = 0.3;
    drops.faults.seed = 21;
    tasks.push_back(std::move(drops));
  }
  auto quarantine = task(xsede, Algorithm::kProMc, 8);
  quarantine.faults.stochastic.channel_drop_rate = 1.0;
  quarantine.faults.retry.channel_retry_budget = 0;
  quarantine.faults.seed = 22;
  tasks.push_back(std::move(quarantine));
  auto one_dtn = xsede;
  one_dtn.env.source.servers.resize(1);
  auto stranded = task(one_dtn, Algorithm::kProMc, 6);
  stranded.faults.outages.push_back({true, 0, 1.0, 1.5});
  tasks.push_back(std::move(stranded));
  tasks.push_back(task(xsede, Algorithm::kHtee, 12));
  auto sla = task(xsede, Algorithm::kSc, 12);
  sla.kind = SweepTask::Kind::kSla;
  sla.target_percent = 50.0;
  sla.max_throughput = gbps(8.0);
  tasks.push_back(std::move(sla));

  const auto results = SweepRunner(1).run(tasks);
  for (const auto& r : results) {
    ASSERT_TRUE(r.result().completed) << r.index;
    EXPECT_EQ(r.result().goodput_bytes(), ds.total_bytes()) << r.index;
  }
  // Each leg really took the path it stands for.
  EXPECT_GT(results[0].result().faults.channel_drops, 0);
  EXPECT_EQ(results[0].result().faults.wasted_bytes, 0u);
  EXPECT_GT(results[1].result().faults.wasted_bytes, 0u);
  EXPECT_GT(results[2].result().faults.quarantined_channels, 0);
  EXPECT_EQ(results[3].result().faults.server_outages, 1);
  EXPECT_GT(results[3].result().faults.channel_downtime, 0.0);
  EXPECT_NE(results[4].run.chosen_concurrency, 12);
  EXPECT_NE(results[5].sla.final_concurrency, 12);

  const std::string payload = sweep_payload(results);
  EXPECT_EQ(hex_digest(payload), "4af3425debf30211") << payload;
}

/// Every field of a result, doubles in hex: per-server ledgers and samples
/// included, which sweep_payload leaves out.
std::string result_dump(const proto::RunResult& r) {
  std::ostringstream os;
  const auto& f = r.faults;
  os << "completed=" << r.completed << " duration=" << hexf(r.duration) << " bytes=" << r.bytes
     << " end_j=" << hexf(r.end_system_energy) << " net_j=" << hexf(r.network_energy)
     << " final_cc=" << r.final_concurrency << " retries=" << f.retries
     << " drops=" << f.channel_drops << " checksum=" << f.checksum_failures
     << " outages=" << f.server_outages << " quarantined=" << f.quarantined_channels
     << " wasted=" << f.wasted_bytes << " wasted_j=" << hexf(f.wasted_joules)
     << " ch_down=" << hexf(f.channel_downtime) << " srv_down=" << hexf(f.server_downtime)
     << '\n';
  for (const auto* side : {&r.source_servers, &r.destination_servers}) {
    for (const auto& s : *side) {
      os << s.name << ' ' << hexf(s.joules) << ' ' << hexf(s.active_time) << '\n';
    }
  }
  for (const auto& s : r.samples) {
    os << hexf(s.window_start) << ' ' << hexf(s.window_end) << ' ' << s.bytes << ' '
       << hexf(s.end_system_energy) << ' ' << s.active_channels << ' ' << s.wasted_bytes
       << ' ' << s.down_channels << '\n';
  }
  return os.str();
}

TEST(GoldenPayload, ResumedLegIsPinned) {
  // A periodic journal entry taken mid-run, written out, read back and
  // resumed into a fresh session that runs the rest under channel drops.
  const auto xsede = testbeds::xsede();
  const auto ds = small_dataset(2000 * kMB, 20 * kMB, 400 * kMB, 45);
  const auto plan = baselines::plan_promc(xsede.env, ds, 8);
  proto::FaultPlan faults;
  faults.stochastic.channel_drop_rate = 1.5;
  faults.retry.backoff_initial = 0.3;
  faults.seed = 31;
  proto::SessionConfig cfg;
  cfg.sample_interval = 0.5;
  cfg.checkpoint_interval = 1.0;
  cfg.max_sim_time = 600.0;

  std::vector<proto::TransferCheckpoint> journal;
  {
    proto::TransferSession first(xsede.env, ds, plan, cfg);
    first.set_fault_plan(faults);
    first.set_checkpoint_sink(
        [&](const proto::TransferCheckpoint& c) { journal.push_back(c); });
    ASSERT_TRUE(first.run().completed);
  }
  ASSERT_GE(journal.size(), 2u);
  std::stringstream text;
  proto::write_checkpoint(text, journal[1]);
  std::string err;
  const auto entry = proto::read_checkpoint(text, &err);
  ASSERT_TRUE(entry.has_value()) << err;

  cfg.checkpoint_interval = 0.0;
  proto::TransferSession second(xsede.env, ds, plan, cfg);
  second.set_fault_plan(faults);
  ASSERT_TRUE(second.resume_from(*entry, &err)) << err;
  const auto resumed = second.run();
  ASSERT_TRUE(resumed.completed);
  EXPECT_EQ(resumed.goodput_bytes(), ds.total_bytes());
  EXPECT_GT(resumed.faults.channel_drops, entry->faults.channel_drops);

  const std::string dump = result_dump(resumed);
  EXPECT_EQ(hex_digest(dump), "6e0d4856072b9cab") << dump;
}

TEST(GoldenPayload, SchedulerDrawWithDropsIsPinned) {
  // Three tenants on a scaled-down XSEDE share one link under channel drops;
  // an interactive arrival preempts a scavenger, which resumes later.
  auto tb = testbeds::xsede();
  tb.recipe.total_bytes /= 64;
  SchedulerPolicy policy;
  policy.max_concurrent = 2;
  proto::SessionConfig cfg;
  cfg.sample_interval = 1.0;
  Scheduler scheduler(tb, gbps(7.0), policy, cfg);
  proto::FaultPlan faults;
  faults.stochastic.channel_drop_rate = 0.8;
  faults.retry.backoff_initial = 0.3;
  faults.seed = 41;
  scheduler.set_fault_plan(faults);
  const auto files = [](Bytes size, int count) {
    proto::Dataset ds;
    for (int i = 0; i < count; ++i) ds.files.push_back({size + static_cast<Bytes>(i) * kMB});
    return ds;
  };
  std::vector<SchedulerJob> jobs;
  jobs.push_back({{"bg0", files(120 * kMB, 10), JobPolicy::kGreen, 0, 0, 4}, 0.0});
  jobs.push_back({{"bg1", files(60 * kMB, 16), JobPolicy::kGreen, 0, 0, 4}, 0.0});
  jobs.push_back({{"urgent", files(80 * kMB, 6), JobPolicy::kDeadline, 0, 0, 4}, 0.6});
  const auto report = scheduler.run(std::move(jobs));

  ASSERT_EQ(report.jobs.size(), 3u);
  EXPECT_GE(report.preemptions, 1);
  std::int64_t drops = 0;
  for (const auto& job : report.jobs) {
    EXPECT_TRUE(job.result.completed) << job.name;
    drops += job.result.faults.channel_drops;
  }
  EXPECT_GT(drops, 0);
  EXPECT_TRUE(report.accounting_consistent());

  const std::string payload = scheduler_report_payload(report);
  EXPECT_EQ(hex_digest(payload), "165d38d9447a2415") << payload;
}

}  // namespace
}  // namespace eadt::exp
