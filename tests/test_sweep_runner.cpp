// The parallel sweep executor's contract: output is bit-identical whatever
// the worker count, repeated sweeps in one process agree byte-for-byte (no
// hidden static state), the fan-out primitive visits every index exactly
// once, and a big faulted sweep with checkpoint sinks is race-free (the TSan
// CI job runs this file under -fsanitize=thread).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <vector>

#include "exp/sweep.hpp"

namespace eadt::exp {
namespace {

testbeds::Testbed tiny(testbeds::Testbed t, unsigned div = 64) {
  t.recipe.total_bytes /= div;
  for (auto& band : t.recipe.bands) {
    band.max_size = std::max(band.max_size / div, band.min_size * 2);
  }
  return t;
}

std::vector<testbeds::Testbed> tiny_testbeds(unsigned div = 64) {
  return {tiny(testbeds::xsede(), div), tiny(testbeds::futuregrid(), div),
          tiny(testbeds::didclab(), div)};
}

/// The golden grid of the issue: 3 testbeds x 6 algorithms x 5 concurrency
/// levels = 90 tasks.
std::vector<SweepTask> golden_grid() {
  std::vector<SweepTask> tasks;
  for (const auto& t : tiny_testbeds()) {
    const auto dataset = t.make_dataset();
    for (const auto a : figure_algorithms()) {
      for (const int cc : {1, 2, 4, 8, 12}) {
        SweepTask task;
        task.testbed = t;
        task.dataset = dataset;
        task.algorithm = a;
        task.concurrency = cc;
        task.config.sample_interval = 1.0;
        tasks.push_back(std::move(task));
      }
    }
  }
  return tasks;
}

TEST(SweepRunner, ParallelOutputIsByteIdenticalToSequential) {
  const auto tasks = golden_grid();
  ASSERT_EQ(tasks.size(), 90u);

  const auto seq = SweepRunner(1).run(tasks);
  const std::string golden = sweep_payload(seq);
  ASSERT_FALSE(golden.empty());

  for (const int jobs : {4, 8}) {
    const auto par = SweepRunner(jobs).run(tasks);
    EXPECT_EQ(sweep_payload(par), golden) << "jobs=" << jobs;
  }

  // Spot-check the payload is substantive: every task completed and moved
  // the whole dataset.
  for (const auto& r : seq) {
    EXPECT_TRUE(r.result().completed);
    EXPECT_GT(r.result().bytes, 0u);
    EXPECT_GT(r.result().sim_counters.fired, 0u);
    EXPECT_GE(r.result().sim_counters.scheduled, r.result().sim_counters.fired);
  }
}

TEST(SweepRunner, RepeatedSweepInOneProcessIsByteIdentical) {
  // No hidden static state: the same runner, run twice back to back in this
  // process, must reproduce the payload byte-for-byte.
  std::vector<SweepTask> tasks;
  const auto t = tiny(testbeds::xsede());
  const auto dataset = t.make_dataset();
  for (const auto a : figure_algorithms()) {
    for (const int cc : {1, 4, 12}) {
      SweepTask task;
      task.testbed = t;
      task.dataset = dataset;
      task.algorithm = a;
      task.concurrency = cc;
      task.config.sample_interval = 1.0;
      tasks.push_back(std::move(task));
    }
  }
  const SweepRunner runner(4);
  const auto first = runner.run(tasks);
  const auto second = runner.run(tasks);
  EXPECT_EQ(sweep_payload(first), sweep_payload(second));
}

TEST(SweepRunner, SlaTasksAreDeterministicToo) {
  const auto t = tiny(testbeds::xsede());
  const auto dataset = t.make_dataset();

  // Calibrate the target off one ProMC run, as the SLA figures do.
  std::vector<SweepTask> promc(1);
  promc[0].testbed = t;
  promc[0].dataset = dataset;
  promc[0].algorithm = Algorithm::kProMc;
  promc[0].concurrency = 12;
  const auto max_thr = SweepRunner(1).run(promc)[0].result().avg_throughput();
  ASSERT_GT(max_thr, 0.0);

  std::vector<SweepTask> tasks;
  for (const double pct : sla_target_percents()) {
    SweepTask task;
    task.kind = SweepTask::Kind::kSla;
    task.testbed = t;
    task.dataset = dataset;
    task.concurrency = 12;
    task.target_percent = pct;
    task.max_throughput = max_thr;
    tasks.push_back(std::move(task));
  }
  const auto seq = SweepRunner(1).run(tasks);
  const auto par = SweepRunner(8).run(tasks);
  EXPECT_EQ(sweep_payload(seq), sweep_payload(par));
  for (const auto& r : seq) {
    EXPECT_EQ(r.kind, SweepTask::Kind::kSla);
    EXPECT_TRUE(r.result().completed);
  }
}

TEST(SweepRunner, StressFaultedSweepIsRaceFree) {
  // 200 tasks under an active fault plan on eight workers. Each task owns
  // its session, fault injector and RNG streams and writes only its own
  // result slot, so TSan passing over this test certifies the executor adds
  // no races.
  constexpr std::size_t kTasks = 200;
  const auto t = tiny(testbeds::xsede(), 256);
  const auto dataset = t.make_dataset();

  proto::FaultPlan faults;
  faults.stochastic.channel_drop_rate = 0.05;
  faults.stochastic.checksum_failure_prob = 0.002;

  const Algorithm algorithms[] = {Algorithm::kSc, Algorithm::kMinE,
                                  Algorithm::kProMc, Algorithm::kHtee};
  std::vector<SweepTask> tasks;
  for (std::size_t i = 0; i < kTasks; ++i) {
    SweepTask task;
    task.testbed = t;
    task.dataset = dataset;
    task.algorithm = algorithms[i % std::size(algorithms)];
    task.concurrency = 1 + static_cast<int>(i % 12);
    task.faults = faults;
    task.seed = i + 1;  // decorrelate the fault histories per grid point
    task.config.sample_interval = 1.0;
    tasks.push_back(std::move(task));
  }

  const auto par = SweepRunner(8).run(tasks);
  ASSERT_EQ(par.size(), kTasks);
  for (const auto& r : par) {
    EXPECT_TRUE(r.result().completed) << "task " << r.index;
    EXPECT_EQ(r.result().goodput_bytes(), dataset.total_bytes()) << "task " << r.index;
    EXPECT_NE(r.derived_seed, 0u);
  }

  // And the faulted parallel sweep replays bit-identically in sequence.
  const auto seq = SweepRunner(1).run(tasks);
  EXPECT_EQ(sweep_payload(seq), sweep_payload(par));
}

TEST(SweepRunner, ParallelIndexedVisitsEveryIndexOnce) {
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> visits(kCount);
  SweepRunner::parallel_indexed(8, kCount, [&](std::size_t i) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
  // Zero tasks is a no-op, not a hang.
  SweepRunner::parallel_indexed(4, 0, [&](std::size_t) { FAIL(); });
}

TEST(SweepRunner, WorkerExceptionsPropagate) {
  EXPECT_THROW(
      SweepRunner::parallel_indexed(4, 100,
                                    [&](std::size_t i) {
                                      if (i == 57) throw std::runtime_error("boom");
                                    }),
      std::runtime_error);
}

TEST(SweepRunner, ResolveJobsPolicy) {
  EXPECT_EQ(resolve_jobs(3), 3);
  EXPECT_EQ(resolve_jobs(1), 1);

  ::setenv("EADT_JOBS", "5", 1);
  EXPECT_EQ(resolve_jobs(0), 5);
  EXPECT_EQ(resolve_jobs(2), 2);  // explicit wins over the environment
  ::setenv("EADT_JOBS", "junk", 1);
  EXPECT_GE(resolve_jobs(0), 1);  // falls through to hardware_concurrency
  ::unsetenv("EADT_JOBS");
  EXPECT_GE(resolve_jobs(0), 1);
  EXPECT_GE(resolve_jobs(-4), 1);
}

TEST(SweepRunner, DerivedSeedReKeysStochasticStreams) {
  // With a non-zero base seed, two grid points that differ only in
  // concurrency get different jitter streams — their derived seeds differ —
  // while the same point replays identically.
  auto t = tiny(testbeds::xsede());
  t.env.rate_jitter_sd = 0.10;
  const auto dataset = t.make_dataset();
  auto make = [&](int cc, std::uint64_t seed) {
    SweepTask task;
    task.testbed = t;
    task.dataset = dataset;
    task.algorithm = Algorithm::kProMc;
    task.concurrency = cc;
    task.seed = seed;
    return task;
  };
  const auto r = SweepRunner(1).run({make(4, 7), make(8, 7), make(4, 7), make(4, 9)});
  EXPECT_NE(r[0].derived_seed, r[1].derived_seed);
  EXPECT_EQ(r[0].derived_seed, r[2].derived_seed);
  EXPECT_NE(r[0].derived_seed, r[3].derived_seed);
  EXPECT_DOUBLE_EQ(r[0].result().duration, r[2].result().duration);
  // Different base seed, same point: different jitter history.
  EXPECT_NE(r[0].result().duration, r[3].result().duration);
}

}  // namespace
}  // namespace eadt::exp
