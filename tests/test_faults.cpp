// Fault injection and failure-recovery semantics of the transfer engine.
#include <gtest/gtest.h>

#include "exp/runner.hpp"
#include "proto/faults.hpp"
#include "proto/session.hpp"
#include "test_env.hpp"

namespace eadt::proto {
namespace {

using testutil::dataset_of;
using testutil::mixed_dataset;
using testutil::small_env;

/// One chunk, `channels` data channels, no stealing complications.
TransferPlan one_chunk_plan(const Dataset& ds, int channels, int parallelism = 2) {
  TransferPlan plan;
  Chunk chunk{SizeClass::kLarge, {}, 0};
  for (std::uint32_t i = 0; i < ds.files.size(); ++i) {
    chunk.file_ids.push_back(i);
    chunk.total += ds.files[i].size;
  }
  plan.chunks = {chunk};
  plan.params = {{1, parallelism, channels}};
  return plan;
}

RunResult run_with(const Environment& env, const Dataset& ds, const TransferPlan& plan,
                   const FaultPlan& faults, SessionConfig cfg = {}) {
  TransferSession session(env, ds, plan, cfg);
  session.set_fault_plan(faults);
  return session.run();
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.end_system_energy, b.end_system_energy);
  EXPECT_EQ(a.network_energy, b.network_energy);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.faults.retries, b.faults.retries);
  EXPECT_EQ(a.faults.channel_drops, b.faults.channel_drops);
  EXPECT_EQ(a.faults.checksum_failures, b.faults.checksum_failures);
  EXPECT_EQ(a.faults.wasted_bytes, b.faults.wasted_bytes);
  EXPECT_EQ(a.faults.wasted_joules, b.faults.wasted_joules);
  EXPECT_EQ(a.faults.channel_downtime, b.faults.channel_downtime);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].bytes, b.samples[i].bytes);
    EXPECT_EQ(a.samples[i].end_system_energy, b.samples[i].end_system_energy);
    EXPECT_EQ(a.samples[i].wasted_bytes, b.samples[i].wasted_bytes);
  }
}

TEST(FaultPlanDefaults, InactivePlanIsByteIdenticalToNoPlan) {
  const auto env = small_env();
  const auto ds = mixed_dataset();
  const auto plan = one_chunk_plan(ds, 3);
  TransferSession bare(env, ds, plan);
  const auto a = bare.run();
  const auto b = run_with(env, ds, plan, FaultPlan{});
  expect_identical(a, b);
  EXPECT_EQ(b.faults.retries, 0);
  EXPECT_EQ(b.faults.wasted_bytes, 0u);
  EXPECT_EQ(b.goodput_bytes(), b.bytes);
}

TEST(FaultPlanDefaults, ZeroFaultPlanReproducesGoldenNumbers) {
  // The golden pins of tests/test_golden.cpp must survive the fault
  // subsystem: a zero-fault plan changes nothing about the recorded
  // full-scale FutureGrid GO run, and runs with/without a plan are
  // bit-identical.
  static const testbeds::Testbed testbed = testbeds::futuregrid();
  static const proto::Dataset dataset = testbed.make_dataset();
  const auto bare = exp::run_algorithm(exp::Algorithm::kGo, testbed, dataset, 2);
  const auto faulted = exp::run_algorithm(exp::Algorithm::kGo, testbed, dataset, 2,
                                          SessionConfig{}, FaultPlan{});
  expect_identical(bare.result, faulted.result);
  EXPECT_NEAR(faulted.throughput_mbps(), 842, 842 * 0.02);
  EXPECT_NEAR(faulted.energy(), 24168, 24168 * 0.02);
}

TEST(FaultDeterminism, SameSeedIsBitIdentical) {
  const auto env = small_env(2);
  const auto ds = mixed_dataset();
  auto plan = one_chunk_plan(ds, 3);
  plan.placement = Placement::kRoundRobin;
  FaultPlan faults;
  faults.stochastic.channel_drop_rate = 0.5;
  faults.stochastic.checksum_failure_prob = 0.05;
  faults.retry.restart_markers = false;
  faults.seed = 1234;
  const auto a = run_with(env, ds, plan, faults);
  const auto b = run_with(env, ds, plan, faults);
  ASSERT_TRUE(a.completed);
  EXPECT_GT(a.faults.channel_drops, 0);
  expect_identical(a, b);
}

TEST(FaultDeterminism, DifferentSeedChangesTheRun) {
  const auto env = small_env();
  const auto ds = mixed_dataset();
  const auto plan = one_chunk_plan(ds, 3);
  FaultPlan faults;
  faults.stochastic.channel_drop_rate = 0.5;
  faults.seed = 1;
  auto other = faults;
  other.seed = 2;
  const auto a = run_with(env, ds, plan, faults);
  const auto b = run_with(env, ds, plan, other);
  // Both complete, but the fault histories diverge.
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_NE(a.duration, b.duration);
}

TEST(ChannelRecovery, KilledChannelRetriesAndCompletes) {
  const auto env = small_env();
  const auto ds = dataset_of({60 * kMB, 60 * kMB});
  const auto plan = one_chunk_plan(ds, 1);
  FaultPlan faults;
  faults.channel_drops.push_back({1.0, 0});  // mid first file
  faults.retry.restart_markers = false;      // legacy: full retransmission
  const auto r = run_with(env, ds, plan, faults);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.faults.channel_drops, 1);
  EXPECT_GE(r.faults.retries, 1);
  EXPECT_GT(r.faults.wasted_bytes, 0u);
  EXPECT_GT(r.faults.wasted_joules, 0.0);
  EXPECT_GT(r.faults.channel_downtime, 0.0);
  // Wire bytes exceed the dataset (the lost prefix moved twice); goodput
  // equals the dataset exactly.
  EXPECT_GT(r.bytes, ds.total_bytes());
  EXPECT_EQ(r.goodput_bytes(), ds.total_bytes());
  EXPECT_GT(r.avg_throughput(), r.avg_goodput());
}

TEST(ChannelRecovery, RestartMarkersResumeFromOffset) {
  const auto env = small_env();
  const auto ds = dataset_of({60 * kMB, 60 * kMB});
  const auto plan = one_chunk_plan(ds, 1);
  FaultPlan faults;
  faults.channel_drops.push_back({1.0, 0});
  faults.retry.restart_markers = true;
  const auto r = run_with(env, ds, plan, faults);
  ASSERT_TRUE(r.completed);
  EXPECT_GE(r.faults.retries, 1);
  // Nothing is re-sent: wire bytes equal the dataset and no waste accrues.
  EXPECT_EQ(r.bytes, ds.total_bytes());
  EXPECT_EQ(r.faults.wasted_bytes, 0u);
}

TEST(ChannelRecovery, RepeatedDropsQuarantineTheSlot) {
  const auto env = small_env();
  const auto ds = mixed_dataset();
  const auto plan = one_chunk_plan(ds, 2);
  FaultPlan faults;
  faults.stochastic.channel_drop_rate = 4.0;  // a drop every ~0.25 s
  faults.retry.channel_retry_budget = 1;
  faults.retry.backoff_initial = 0.3;
  const auto r = run_with(env, ds, plan, faults);
  ASSERT_TRUE(r.completed);  // effective concurrency never falls below one
  EXPECT_GT(r.faults.quarantined_channels, 0);
  EXPECT_EQ(r.goodput_bytes(), ds.total_bytes());
}

TEST(ChecksumFailures, RejectedFilesAreRetransmitted) {
  const auto env = small_env();
  const auto ds = mixed_dataset();
  const auto plan = one_chunk_plan(ds, 2);
  FaultPlan faults;
  faults.stochastic.checksum_failure_prob = 0.15;
  faults.seed = 7;
  const auto r = run_with(env, ds, plan, faults);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.faults.checksum_failures, 0);
  EXPECT_GT(r.faults.wasted_bytes, 0u);
  EXPECT_EQ(r.goodput_bytes(), ds.total_bytes());
}

TEST(ServerOutage, SingleServerOutageDegradesWithoutAborting) {
  const auto env = small_env(2);
  const auto ds = mixed_dataset();
  auto plan = one_chunk_plan(ds, 4);
  plan.placement = Placement::kRoundRobin;
  FaultPlan faults;
  faults.outages.push_back({/*source_side=*/true, /*server=*/0, /*start=*/0.5,
                            /*duration=*/3.0});
  const auto r = run_with(env, ds, plan, faults);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.faults.server_outages, 1);
  EXPECT_NEAR(r.faults.server_downtime, 3.0, 0.01);
  EXPECT_EQ(r.goodput_bytes(), ds.total_bytes());
  // Degradation, not death: the clean run is strictly faster.
  TransferSession clean(env, ds, plan);
  const auto c = clean.run();
  EXPECT_GT(r.duration, c.duration);
}

TEST(ServerOutage, WholeSideDownPastTheGuardAborts) {
  const auto env = small_env();  // a single source server
  const auto ds = dataset_of({50 * kMB, 50 * kMB});
  const auto plan = one_chunk_plan(ds, 1);
  SessionConfig cfg;
  cfg.max_sim_time = 20.0;
  FaultPlan faults;
  faults.outages.push_back({true, 0, 0.5, 100.0});  // never recovers in time
  const auto r = run_with(env, ds, plan, faults, cfg);
  EXPECT_FALSE(r.completed);
  EXPECT_LT(r.bytes, ds.total_bytes());
}

TEST(ServerOutage, WholeSideRecoveryResumesStrandedChannels) {
  const auto env = small_env();
  const auto ds = dataset_of({50 * kMB, 50 * kMB});
  const auto plan = one_chunk_plan(ds, 1);
  FaultPlan faults;
  faults.outages.push_back({true, 0, 0.5, 4.0});  // sole source server blinks
  const auto r = run_with(env, ds, plan, faults);
  ASSERT_TRUE(r.completed);
  EXPECT_NEAR(r.faults.server_downtime, 4.0, 0.01);
  EXPECT_EQ(r.goodput_bytes(), ds.total_bytes());
}

TEST(PathBrownout, ReducedCapacitySlowsButFinishes) {
  const auto env = small_env();
  const auto ds = dataset_of({40 * kMB, 40 * kMB, 40 * kMB});
  const auto plan = one_chunk_plan(ds, 2);
  FaultPlan faults;
  faults.brownouts.push_back({0.5, 5.0, 0.25});
  const auto r = run_with(env, ds, plan, faults);
  ASSERT_TRUE(r.completed);
  TransferSession clean(env, ds, plan);
  const auto c = clean.run();
  EXPECT_GT(r.duration, c.duration);
  EXPECT_EQ(r.bytes, c.bytes);  // nothing lost, just slower
}

TEST(SharedSimulation, DestroyedSessionLeavesNoPlanEventBehind) {
  // A scheduler leg that is preempted or aborted is destroyed while the
  // shared simulation runs on: its pending plan events must leave the queue
  // with it, or they would fire into a dead session.
  const auto env = small_env(2);
  const auto ds = dataset_of({80 * kMB, 80 * kMB, 80 * kMB});
  FaultPlan faults;
  faults.channel_drops.push_back({0.3, 0});
  faults.outages.push_back({/*source_side=*/true, /*server=*/1, /*start=*/0.2,
                            /*duration=*/10.0});
  faults.brownouts.push_back({0.1, 5.0, 0.5});
  faults.stochastic.channel_drop_rate = 2.0;

  sim::Simulation sim;
  sim.schedule_at(7200.0, [] {});  // someone else's event, two hours out
  const std::size_t before = sim.pending_events();
  {
    SessionConfig cfg;
    TransferSession session(sim, env, ds, one_chunk_plan(ds, 2), cfg);
    session.set_fault_plan(faults);
    ASSERT_FALSE(session.begin().has_value());
    std::vector<BitsPerSecond> alloc;
    net::FairShareScratch scratch;
    for (int k = 1; k <= 5; ++k) {
      sim.run_until(k * cfg.tick);
      session.tick_prepare();
      session.collect_link_demands();
      net::fair_share_reference_into(
          env.path.available_bandwidth() * session.path_factor(), session.link_demands(),
          alloc, scratch);
      session.apply_link_allocation(alloc, 1.0, 1.0);
      session.advance_compute();
      ASSERT_TRUE(session.advance_commit());
    }
    EXPECT_GT(sim.pending_events(), before);  // outage and brownout ends, next drop
  }
  EXPECT_EQ(sim.pending_events(), before);
  const auto fired = sim.counters().fired;
  sim.run_until(sim.now() + 3600.0);
  EXPECT_EQ(sim.counters().fired, fired);
}

TEST(RobustnessSamples, WindowsReportWasteAndDownChannels) {
  const auto env = small_env();
  const auto ds = mixed_dataset();
  const auto plan = one_chunk_plan(ds, 2);
  SessionConfig cfg;
  cfg.sample_interval = 0.5;
  FaultPlan faults;
  faults.stochastic.channel_drop_rate = 1.0;
  faults.retry.restart_markers = false;
  faults.retry.backoff_initial = 1.0;
  const auto r = run_with(env, ds, plan, faults, cfg);
  ASSERT_TRUE(r.completed);
  Bytes window_waste = 0;
  int down_seen = 0;
  for (const auto& s : r.samples) {
    window_waste += s.wasted_bytes;
    down_seen += s.down_channels;
  }
  EXPECT_EQ(window_waste, r.faults.wasted_bytes);
  EXPECT_GT(down_seen, 0);
}

TEST(FaultPlanValidation, DefaultAndTypicalPlansAreAccepted) {
  EXPECT_FALSE(FaultPlan{}.validate().has_value());
  FaultPlan busy;
  busy.channel_drops.push_back({3.0, -1});
  busy.outages.push_back({true, 0, 5.0, 2.0});
  busy.brownouts.push_back({1.0, 2.0, 0.5});
  busy.brownouts.push_back({4.0, 1.0, 0.8});  // back to back, no overlap
  busy.stochastic.channel_drop_rate = 0.5;
  busy.stochastic.checksum_failure_prob = 0.01;
  EXPECT_FALSE(busy.validate().has_value());
}

TEST(FaultPlanValidation, RejectsOutOfRangeFields) {
  const auto message = [](FaultPlan plan) {
    const auto bad = plan.validate();
    EXPECT_TRUE(bad.has_value());
    return bad.value_or("");
  };
  FaultPlan p;
  p.channel_drops.push_back({-1.0, 0});
  EXPECT_NE(message(p).find("channel_drops"), std::string::npos);

  p = {};
  p.outages.push_back({true, 0, 1.0, -2.0});
  EXPECT_NE(message(p).find("outages"), std::string::npos);

  p = {};
  p.brownouts.push_back({1.0, 2.0, 1.5});  // capacity above nominal
  EXPECT_NE(message(p).find("capacity_factor"), std::string::npos);

  p = {};
  p.stochastic.channel_drop_rate = -0.1;
  EXPECT_NE(message(p).find("drop_rate"), std::string::npos);

  p = {};
  p.stochastic.checksum_failure_prob = 1.5;
  EXPECT_NE(message(p).find("checksum"), std::string::npos);

  p = {};
  p.retry.backoff_multiplier = 0.0;  // would re-dial instantly forever
  EXPECT_NE(message(p).find("multiplier"), std::string::npos);

  p = {};
  p.retry.backoff_jitter = 2.0;
  EXPECT_NE(message(p).find("jitter"), std::string::npos);

  p = {};
  p.retry.channel_retry_budget = -1;
  EXPECT_NE(message(p).find("budget"), std::string::npos);
}

TEST(FaultPlanValidation, RejectsOverlappingBrownouts) {
  FaultPlan p;
  p.brownouts.push_back({5.0, 3.0, 0.5});
  p.brownouts.push_back({1.0, 2.0, 0.5});  // unsorted input is handled
  EXPECT_FALSE(p.validate().has_value());
  p.brownouts.push_back({7.0, 1.0, 0.5});  // inside [5, 8)
  const auto bad = p.validate();
  ASSERT_TRUE(bad.has_value());
  EXPECT_NE(bad->find("overlap"), std::string::npos);
}

TEST(FaultPlanValidation, SessionRefusesToRunAMalformedPlan) {
  const auto env = small_env();
  const auto ds = dataset_of({10 * kMB});
  FaultPlan p;
  p.stochastic.channel_drop_rate = -1.0;
  const auto r = run_with(env, ds, one_chunk_plan(ds, 1), p);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.bytes, 0u);
  EXPECT_NE(r.error.find("invalid FaultPlan"), std::string::npos) << r.error;
  EXPECT_FALSE(r.checkpoint.has_value());  // nothing ran, nothing to resume
}

TEST(RetryBackoff, GrowsGeometricallyAndHitsTheCeiling) {
  RetryPolicy retry;
  retry.backoff_initial = 1.0;
  retry.backoff_multiplier = 2.0;
  retry.backoff_max = 5.0;
  retry.backoff_jitter = 0.0;
  Rng rng(1);
  EXPECT_DOUBLE_EQ(retry_backoff_delay(retry, 1, rng), 1.0);
  EXPECT_DOUBLE_EQ(retry_backoff_delay(retry, 2, rng), 2.0);
  EXPECT_DOUBLE_EQ(retry_backoff_delay(retry, 3, rng), 4.0);
  EXPECT_DOUBLE_EQ(retry_backoff_delay(retry, 4, rng), 5.0);   // capped
  EXPECT_DOUBLE_EQ(retry_backoff_delay(retry, 10, rng), 5.0);  // stays capped
}

TEST(RetryBackoff, JitterStaysInsideItsBand) {
  RetryPolicy retry;
  retry.backoff_initial = 2.0;
  retry.backoff_multiplier = 1.0;
  retry.backoff_jitter = 0.25;
  Rng rng(42);
  double lo = 1e9, hi = 0.0;
  for (int i = 0; i < 200; ++i) {
    const Seconds d = retry_backoff_delay(retry, 1, rng);
    EXPECT_GE(d, 2.0 * (1.0 - 0.25) - 1e-12);
    EXPECT_LE(d, 2.0 * (1.0 + 0.25) + 1e-12);
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  EXPECT_LT(lo, 2.0);  // the band is actually explored on both sides
  EXPECT_GT(hi, 2.0);
}

TEST(RetryBackoff, ZeroBudgetQuarantinesOnTheFirstDrop) {
  const auto env = small_env();
  const auto ds = mixed_dataset();
  const auto plan = one_chunk_plan(ds, 2);
  FaultPlan faults;
  faults.channel_drops.push_back({1.0, 0});
  faults.retry.channel_retry_budget = 0;
  const auto r = run_with(env, ds, plan, faults);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.faults.quarantined_channels, 1);
  EXPECT_EQ(r.goodput_bytes(), ds.total_bytes());

  // Budget 1 absorbs that single drop without losing the slot.
  faults.retry.channel_retry_budget = 1;
  const auto lenient = run_with(env, ds, plan, faults);
  ASSERT_TRUE(lenient.completed);
  EXPECT_EQ(lenient.faults.quarantined_channels, 0);
}

TEST(RetryBackoff, LegacyRetransmissionPaysForEveryDropOfTheSameFile) {
  // Without restart markers a file dropped twice re-sends its prefix twice;
  // the journal/waste accounting must reflect both losses.
  const auto env = small_env();
  const auto ds = dataset_of({80 * kMB});
  const auto plan = one_chunk_plan(ds, 1);
  FaultPlan once;
  once.channel_drops.push_back({0.3, 0});
  once.retry.restart_markers = false;
  once.retry.backoff_initial = 0.2;
  auto twice = once;
  twice.channel_drops.push_back({1.2, 0});  // hits the retransmission too

  const auto a = run_with(env, ds, plan, once);
  const auto b = run_with(env, ds, plan, twice);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_EQ(a.faults.channel_drops, 1);
  EXPECT_EQ(b.faults.channel_drops, 2);
  EXPECT_GT(b.faults.wasted_bytes, a.faults.wasted_bytes);
  EXPECT_GT(b.bytes, a.bytes);
  // Goodput is invariant: every drop wastes wire bytes, never unique bytes.
  EXPECT_EQ(a.goodput_bytes(), ds.total_bytes());
  EXPECT_EQ(b.goodput_bytes(), ds.total_bytes());
}

}  // namespace
}  // namespace eadt::proto
