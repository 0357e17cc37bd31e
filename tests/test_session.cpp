#include "proto/session.hpp"

#include <gtest/gtest.h>

#include "test_env.hpp"

namespace eadt::proto {
namespace {

using testutil::dataset_of;
using testutil::mixed_dataset;
using testutil::small_env;

TransferPlan one_chunk_plan(const Dataset& ds, int channels, int parallelism = 1,
                            int pipelining = 1) {
  TransferPlan plan;
  Chunk all{SizeClass::kLarge, {}, 0};
  for (std::uint32_t i = 0; i < ds.files.size(); ++i) {
    all.file_ids.push_back(i);
    all.total += ds.files[i].size;
  }
  plan.chunks.push_back(all);
  plan.params.push_back({pipelining, parallelism, channels});
  return plan;
}

TEST(Session, TransfersAllBytes) {
  const auto env = small_env();
  const auto ds = dataset_of({10 * kMB, 20 * kMB, 30 * kMB});
  TransferSession s(env, ds, one_chunk_plan(ds, 2));
  const auto r = s.run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.bytes, 60 * kMB);
  EXPECT_GT(r.duration, 0.0);
  EXPECT_GT(r.end_system_energy, 0.0);
  EXPECT_GT(r.network_energy, 0.0);
}

TEST(Session, DeterministicAcrossRuns) {
  const auto env = small_env();
  const auto ds = mixed_dataset();
  TransferSession a(env, ds, one_chunk_plan(ds, 3));
  TransferSession b(env, ds, one_chunk_plan(ds, 3));
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_DOUBLE_EQ(ra.duration, rb.duration);
  EXPECT_DOUBLE_EQ(ra.end_system_energy, rb.end_system_energy);
  EXPECT_EQ(ra.bytes, rb.bytes);
}

TEST(Session, ThroughputBoundedByLink) {
  const auto env = small_env();
  const auto ds = dataset_of({200 * kMB, 200 * kMB, 200 * kMB, 200 * kMB});
  TransferSession s(env, ds, one_chunk_plan(ds, 4, 2));
  const auto r = s.run();
  EXPECT_LE(r.avg_throughput(), env.path.bandwidth * 1.001);
}

TEST(Session, MoreChannelsHelpOnParallelStorage) {
  const auto env = small_env();
  const auto ds = dataset_of({100 * kMB, 100 * kMB, 100 * kMB, 100 * kMB});
  TransferSession s1(env, ds, one_chunk_plan(ds, 1));
  TransferSession s4(env, ds, one_chunk_plan(ds, 4));
  EXPECT_GT(s4.run().avg_throughput(), s1.run().avg_throughput() * 1.5);
}

TEST(Session, PipeliningRescuesSmallFiles) {
  const auto env = small_env();
  // 200 x 1 MiB files over 20 ms RTT: without pipelining each file pays a
  // full RTT of control stall plus a cold window.
  Dataset ds;
  for (int i = 0; i < 200; ++i) ds.files.push_back({1 * kMB});
  TransferSession no_pp(env, ds, one_chunk_plan(ds, 2, 1, 1));
  TransferSession pp(env, ds, one_chunk_plan(ds, 2, 1, 8));
  const auto r_no = no_pp.run();
  const auto r_pp = pp.run();
  EXPECT_GT(r_pp.avg_throughput(), r_no.avg_throughput() * 1.3);
  // Faster transfer at comparable power also means less energy.
  EXPECT_LT(r_pp.end_system_energy, r_no.end_system_energy);
}

TEST(Session, ParallelismHelpsWhenBufferBelowBdp) {
  auto env = small_env();
  env.path = {gbps(2.0), 0.040, 2 * kMB, 1500};  // window cap = 400 Mbps
  env.source.servers[0].per_core_goodput = gbps(1.0);
  env.destination.servers[0].per_core_goodput = gbps(1.0);
  env.source.servers[0].disk.max_bandwidth = gbps(4.0);
  env.destination.servers[0].disk.max_bandwidth = gbps(4.0);
  const auto ds = dataset_of({300 * kMB, 300 * kMB});
  TransferSession p1(env, ds, one_chunk_plan(ds, 1, 1));
  TransferSession p2(env, ds, one_chunk_plan(ds, 1, 2));
  EXPECT_GT(p2.run().avg_throughput(), p1.run().avg_throughput() * 1.5);
}

TEST(Session, SingleDiskDegradesWithConcurrency) {
  auto env = small_env();
  for (auto* ep : {&env.source, &env.destination}) {
    ep->servers[0].disk = {host::DiskKind::kSingleDisk, mbps(700.0), 0.0, 0.15};
  }
  const auto ds = dataset_of({100 * kMB, 100 * kMB, 100 * kMB, 100 * kMB,
                              100 * kMB, 100 * kMB, 100 * kMB, 100 * kMB});
  TransferSession s1(env, ds, one_chunk_plan(ds, 1));
  TransferSession s8(env, ds, one_chunk_plan(ds, 8));
  const auto r1 = s1.run();
  const auto r8 = s8.run();
  EXPECT_GT(r1.avg_throughput(), r8.avg_throughput());
  EXPECT_LT(r1.end_system_energy, r8.end_system_energy);
}

TEST(Session, RoundRobinPlacementActivatesMoreServers) {
  const auto env = small_env(2);
  const auto ds = dataset_of({100 * kMB, 100 * kMB, 100 * kMB, 100 * kMB});
  auto packed = one_chunk_plan(ds, 2);
  packed.placement = Placement::kPacked;
  auto spread = one_chunk_plan(ds, 2);
  spread.placement = Placement::kRoundRobin;

  TransferSession sp(env, ds, packed);
  TransferSession ss(env, ds, spread);
  const auto rp = sp.run();
  const auto rs = ss.run();

  auto active_servers = [](const RunResult& r) {
    int n = 0;
    for (const auto& s : r.source_servers) n += s.active_time > 0.0 ? 1 : 0;
    return n;
  };
  EXPECT_EQ(active_servers(rp), 1);
  EXPECT_EQ(active_servers(rs), 2);
  // Spreading wakes a second server: more energy (the Globus Online effect).
  EXPECT_GT(rs.end_system_energy, rp.end_system_energy * 1.05);
}

TEST(Session, SequentialChunksRunOneAtATime) {
  const auto env = small_env();
  Dataset ds = dataset_of({5 * kMB, 5 * kMB, 80 * kMB, 80 * kMB});
  TransferPlan plan;
  plan.chunks.push_back({SizeClass::kSmall, {0, 1}, 10 * kMB});
  plan.chunks.push_back({SizeClass::kLarge, {2, 3}, 160 * kMB});
  plan.params.push_back({4, 1, 2});
  plan.params.push_back({1, 1, 2});
  plan.sequential_chunks = true;
  TransferSession s(env, ds, plan);
  const auto r = s.run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.bytes, 170 * kMB);
  // With only 2 channels at a time, never more than 2 active in any sample.
  for (const auto& sample : r.samples) EXPECT_LE(sample.active_channels, 2);
}

TEST(Session, SamplesCoverTheWholeRun) {
  const auto env = small_env();
  const auto ds = mixed_dataset();
  SessionConfig cfg;
  cfg.sample_interval = 2.0;
  TransferSession s(env, ds, one_chunk_plan(ds, 2), cfg);
  const auto r = s.run();
  ASSERT_FALSE(r.samples.empty());
  Bytes total = 0;
  Joules energy = 0.0;
  for (const auto& sample : r.samples) {
    total += sample.bytes;
    energy += sample.end_system_energy;
    EXPECT_GE(sample.window_end, sample.window_start);
  }
  EXPECT_EQ(total, r.bytes);
  EXPECT_NEAR(energy, r.end_system_energy, r.end_system_energy * 1e-9);
  EXPECT_NEAR(r.samples.back().window_end, r.duration, cfg.tick + 1e-9);
}

namespace {
class ConcurrencyStep final : public Controller {
 public:
  explicit ConcurrencyStep(int to) : to_(to) {}
  std::optional<int> initial_concurrency() override { return 1; }
  void on_sample(TransferSession& session, const SampleStats&) override {
    session.set_total_concurrency(to_);
  }

 private:
  int to_;
};
}  // namespace

TEST(Session, ControllerCanRetargetConcurrency) {
  const auto env = small_env();
  Dataset ds;
  for (int i = 0; i < 30; ++i) ds.files.push_back({30 * kMB});
  SessionConfig cfg;
  cfg.sample_interval = 1.0;
  ConcurrencyStep ctl(4);
  TransferSession s(env, ds, one_chunk_plan(ds, 1), cfg);
  const auto r = s.run(&ctl);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.final_concurrency, 4);
  // Later samples should show more active channels than the first.
  ASSERT_GE(r.samples.size(), 2u);
  EXPECT_EQ(r.samples.front().active_channels, 1);
  bool saw_four = false;
  for (const auto& sample : r.samples) saw_four |= sample.active_channels >= 3;
  EXPECT_TRUE(saw_four);
}

TEST(Session, LargeChunkCapHoldsAndReleases) {
  const auto env = small_env();
  Dataset ds = dataset_of({60 * kMB, 60 * kMB, 60 * kMB, 60 * kMB, 60 * kMB, 60 * kMB});
  TransferPlan plan;
  plan.chunks.push_back({SizeClass::kLarge, {0, 1, 2, 3, 4, 5}, 360 * kMB});
  plan.params.push_back({1, 1, 4});
  plan.steal = StealPolicy::kAll;

  struct CapCtl final : Controller {
    void on_start(TransferSession& s) override { s.set_large_chunk_cap(1); }
    void on_sample(TransferSession&, const SampleStats& st) override {
      max_seen = std::max(max_seen, st.active_channels);
    }
    int max_seen = 0;
  } ctl;
  TransferSession s(env, ds, plan);
  const auto r = s.run(&ctl);
  EXPECT_TRUE(r.completed);
  EXPECT_LE(ctl.max_seen, 1);
}

TEST(Session, EmptyDatasetCompletesImmediately) {
  const auto env = small_env();
  Dataset ds;
  TransferSession s(env, ds, one_chunk_plan(ds, 2));
  const auto r = s.run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.bytes, 0u);
}

// --- end-of-run fractional-tick guard --------------------------------------
// Ticker timestamps accumulate floating-point error (0.1 is not a binary
// fraction), so after thousands of re-arms a tick can land epsilon past the
// deadline. The run() guard plus the finish-time clamp must keep every
// reported time within max_sim_time, to the last bit.

TEST(Session, InterruptedRunEndsExactlyAtMaxSimTime) {
  const auto env = small_env();
  const auto ds = dataset_of({2000 * kMB, 2000 * kMB});  // cannot finish in time
  SessionConfig cfg;
  cfg.tick = 0.1;
  cfg.max_sim_time = 10.05;  // deliberately not a multiple of the tick
  cfg.sample_interval = 1.0;
  TransferSession s(env, ds, one_chunk_plan(ds, 2), cfg);
  const auto r = s.run();
  EXPECT_FALSE(r.completed);
  EXPECT_DOUBLE_EQ(r.duration, 10.05);
  ASSERT_FALSE(r.samples.empty());
  for (const auto& sample : r.samples) {
    EXPECT_LE(sample.window_end, cfg.max_sim_time);
  }
}

TEST(Session, CompletedRunNeverReportsPastMaxSimTime) {
  const auto env = small_env();
  const auto ds = dataset_of({20 * kMB, 20 * kMB});
  SessionConfig cfg;
  cfg.tick = 0.1;
  // Tight but sufficient deadline: the transfer completes within a tick or
  // two of the cutoff, exactly where an unclamped fractional tick would
  // report duration > max_sim_time.
  TransferSession probe(env, ds, one_chunk_plan(ds, 2), cfg);
  const double needed = probe.run().duration;
  cfg.max_sim_time = needed + cfg.tick / 2.0;
  TransferSession s(env, ds, one_chunk_plan(ds, 2), cfg);
  const auto r = s.run();
  EXPECT_TRUE(r.completed);
  EXPECT_LE(r.duration, cfg.max_sim_time);
  for (const auto& sample : r.samples) {
    EXPECT_LE(sample.window_end, cfg.max_sim_time);
  }
}

TEST(Session, LongRunTickAccumulationStaysClamped) {
  // ~1200 re-arms of a 0.1 s ticker: now() drifts well above one ulp from
  // the nominal k*0.1 grid, so an unclamped finish time would exceed the
  // deadline. Checkpoints, mid-run and at the abort, must obey the same bound.
  const auto env = small_env();
  const auto ds = dataset_of({20ULL * kGB, 20ULL * kGB});  // ~160 s each at 1 Gbps
  SessionConfig cfg;
  cfg.tick = 0.1;
  cfg.max_sim_time = 120.0;
  cfg.sample_interval = 7.3;
  TransferSession s(env, ds, one_chunk_plan(ds, 1), cfg);
  testutil::CheckpointTap tap;
  const auto r = s.run(&tap);
  EXPECT_FALSE(r.completed);
  EXPECT_DOUBLE_EQ(r.duration, 120.0);
  ASSERT_FALSE(tap.entries.empty());
  for (const auto& c : tap.entries) EXPECT_LE(c.taken_at, cfg.max_sim_time);
  ASSERT_TRUE(r.checkpoint.has_value());
  EXPECT_LE(r.checkpoint->taken_at, cfg.max_sim_time);
}

TEST(Session, EnergySplitsAcrossBothEndpoints) {
  const auto env = small_env();
  const auto ds = dataset_of({100 * kMB, 100 * kMB});
  TransferSession s(env, ds, one_chunk_plan(ds, 2));
  const auto r = s.run();
  Joules src = 0.0, dst = 0.0;
  for (const auto& e : r.source_servers) src += e.joules;
  for (const auto& e : r.destination_servers) dst += e.joules;
  EXPECT_GT(src, 0.0);
  EXPECT_GT(dst, 0.0);
  EXPECT_NEAR(src + dst, r.end_system_energy, 1e-9);
}

}  // namespace
}  // namespace eadt::proto
