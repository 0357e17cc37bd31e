// Telemetry instruments (src/obs/telemetry.*) and their scheduler wiring.
//
// The determinism contract under test: TelemetryHub samples are taken in the
// scheduler's serial commit section from deterministic sim state only, so the
// `eadt-telemetry-v1` export is byte-identical at any tick-pipeline worker
// count. The bounding contract: the ring retains the newest `capacity`
// samples and counts what it dropped; the flight recorder stores at most
// max_dumps windows and counts the rest. Stride 0 disables the hub outright.
#include "obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "exp/scheduler.hpp"
#include "exp/service.hpp"
#include "obs/metrics.hpp"

namespace eadt::obs {
namespace {

TelemetrySample sample_at(double t, int running) {
  TelemetrySample s;
  s.t = t;
  s.running = running;
  return s;
}

TEST(TelemetryHub, StrideZeroDisablesEverything) {
  TelemetryHub hub(0.0, 128, 2);
  EXPECT_FALSE(hub.enabled());
  EXPECT_FALSE(hub.due(0.0));
  EXPECT_FALSE(hub.due(1e9));
  hub.record(5.0);  // must be a no-op, not a crash
  EXPECT_EQ(hub.size(), 0u);
  EXPECT_EQ(hub.samples_seen(), 0u);
}

TEST(TelemetryHub, StrideClockAdvancesPastNow) {
  TelemetryHub hub(1.0, 16, 0);
  EXPECT_TRUE(hub.due(0.0));  // first sample lands at t = 0
  hub.record(0.0);
  EXPECT_FALSE(hub.due(0.5));
  EXPECT_TRUE(hub.due(1.0));
  // A coarse tick that jumps several strides yields one sample, not a burst:
  // the clock advances past `now`.
  hub.record(7.3);
  EXPECT_FALSE(hub.due(7.9));
  EXPECT_TRUE(hub.due(8.0));
}

TEST(TelemetryHub, RingKeepsNewestAndCountsDrops) {
  TelemetryHub hub(1.0, 4, 0);
  for (int i = 0; i < 10; ++i) {
    hub.scratch() = sample_at(static_cast<double>(i), i);
    hub.record(static_cast<double>(i));
  }
  EXPECT_EQ(hub.size(), 4u);
  EXPECT_EQ(hub.samples_seen(), 10u);
  // Oldest-first iteration over the retained window: t = 6, 7, 8, 9.
  for (std::size_t i = 0; i < hub.size(); ++i) {
    EXPECT_DOUBLE_EQ(hub.sample(i).t, 6.0 + static_cast<double>(i));
    EXPECT_EQ(hub.sample(i).running, 6 + static_cast<int>(i));
  }
  const std::string json = hub.to_json();
  EXPECT_NE(json.find("\"schema\": \"eadt-telemetry-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"samples_seen\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"samples_dropped\": 6"), std::string::npos);
}

TEST(TelemetryHub, ExportIsSchemaVersionedAndSized) {
  TelemetryHub hub(2.0, 8, 3);
  auto& s = hub.scratch();
  s.t = 0.0;
  s.running = 2;
  s.power_w = 120.0;
  s.cap_w = 200.0;
  ASSERT_EQ(s.site_power_w.size(), 3u);
  s.site_power_w[1] = 60.0;
  s.site_cap_w[1] = 100.0;
  hub.record(0.0);

  const std::string json = hub.to_json();
  EXPECT_NE(json.find("\"stride_s\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"sites\": 3"), std::string::npos);
  // Doubles use the shortest-round-trip convention (exact tens render as
  // e-notation), matching every other exporter in the tree.
  EXPECT_NE(json.find("\"headroom_w\": 8e+01"), std::string::npos);
  EXPECT_NE(json.find("\"site_power_w\": [0, 6e+01, 0]"), std::string::npos);
  EXPECT_NE(json.find("\"site_cap_w\": [0, 1e+02, 0]"), std::string::npos);
}

TEST(TickFlightRecorder, DumpFreezesTheLastKTicksOldestFirst) {
  TickFlightRecorder rec(/*ring_ticks=*/8, /*max_dumps=*/4);
  for (int i = 0; i < 20; ++i) {
    FlightTick tick;
    tick.t = static_cast<double>(i);
    tick.running = i;
    rec.note(tick);
  }
  rec.trigger("test anomaly", 19.0);
  ASSERT_EQ(rec.dumps().size(), 1u);
  const auto& dump = rec.dumps()[0];
  EXPECT_EQ(dump.reason, "test anomaly");
  EXPECT_DOUBLE_EQ(dump.t, 19.0);
  ASSERT_EQ(dump.ticks.size(), 8u);
  for (std::size_t i = 0; i < dump.ticks.size(); ++i) {
    EXPECT_DOUBLE_EQ(dump.ticks[i].t, 12.0 + static_cast<double>(i));
  }
}

TEST(TickFlightRecorder, DumpCountIsBoundedAndOverflowIsCounted) {
  TickFlightRecorder rec(4, /*max_dumps=*/2);
  FlightTick tick;
  rec.note(tick);
  for (int i = 0; i < 5; ++i) {
    rec.trigger("anomaly " + std::to_string(i), static_cast<double>(i));
  }
  EXPECT_EQ(rec.dumps().size(), 2u);
  EXPECT_EQ(rec.suppressed(), 3u);
  EXPECT_EQ(rec.triggers(), 5u);
  std::ostringstream os;
  rec.write_json(os, 0);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\": \"eadt-flightrec-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"suppressed\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"reason\": \"anomaly 0\""), std::string::npos);
  EXPECT_NE(json.find("\"reason\": \"anomaly 1\""), std::string::npos);
  EXPECT_EQ(json.find("\"reason\": \"anomaly 2\""), std::string::npos);
}

TEST(TickProfiler, RegistersFamiliesAndObservesPhases) {
  MetricsRegistry registry;
  TickProfiler profiler(registry);
  profiler.observe(TickProfiler::kPrepare, 12.0);
  profiler.observe(TickProfiler::kCommit, 3.0);
  profiler.record_worker_ops(0, 41);
  profiler.record_worker_ops(TickProfiler::kMaxWorkers + 5, 99);  // ignored

  const auto metrics = registry.snapshot();
  bool prepare_seen = false;
  bool worker0_seen = false;
  for (const auto& m : metrics) {
    if (m.name == "tickpipe.prepare_us") {
      prepare_seen = true;
      EXPECT_EQ(m.kind, MetricSnapshot::Kind::kHistogram);
      EXPECT_EQ(m.count, 1u);
    }
    if (m.name == "tickpipe.worker0.ops") {
      worker0_seen = true;
      EXPECT_DOUBLE_EQ(m.value, 41.0);
    }
  }
  EXPECT_TRUE(prepare_seen);
  EXPECT_TRUE(worker0_seen);
}

}  // namespace
}  // namespace eadt::obs

namespace eadt::exp {
namespace {

testbeds::Testbed tiny_xsede() { return testbeds::scaled(testbeds::xsede(), 64); }

proto::Dataset job_dataset(Bytes file, int count) {
  proto::Dataset ds;
  for (int i = 0; i < count; ++i) ds.files.push_back({file});
  return ds;
}

proto::SessionConfig fast_cfg() {
  proto::SessionConfig cfg;
  cfg.sample_interval = 1.0;
  return cfg;
}

std::vector<SchedulerJob> small_fleet(int n) {
  std::vector<SchedulerJob> jobs;
  for (int i = 0; i < n; ++i) {
    TransferJob job;
    job.name = "t" + std::to_string(i);
    job.dataset = job_dataset(20 * kMB, 2);
    job.policy = i % 2 == 0 ? JobPolicy::kBalanced : JobPolicy::kGreen;
    job.max_channels = 2;
    jobs.push_back({std::move(job), 0.05 * i});
  }
  return jobs;
}

std::string run_with_telemetry(int pipeline_jobs, obs::TelemetryHub& hub) {
  SchedulerPolicy policy;
  policy.max_concurrent = 24;
  policy.max_queue_depth = 24;
  policy.jobs = pipeline_jobs;
  Scheduler scheduler(tiny_xsede(), gbps(7.0), policy, fast_cfg());
  scheduler.set_telemetry(&hub);
  const auto report = scheduler.run(small_fleet(24));
  EXPECT_EQ(report.completed, 24);
  return hub.to_json();
}

TEST(SchedulerTelemetry, ExportIsByteIdenticalAcrossPipelineWorkerCounts) {
  obs::TelemetryHub seq_hub(2.0, 1024, 1);
  obs::TelemetryHub par_hub(2.0, 1024, 1);
  const std::string seq = run_with_telemetry(1, seq_hub);
  const std::string par = run_with_telemetry(4, par_hub);
  EXPECT_GT(seq_hub.size(), 0u);
  EXPECT_EQ(seq, par);
}

TEST(SchedulerTelemetry, SamplesTrackFleetStateAndCompletionCounters) {
  obs::TelemetryHub hub(2.0, 1024, 1);
  run_with_telemetry(1, hub);
  ASSERT_GT(hub.size(), 0u);
  // The first sample fires on the first master tick — one session tick
  // after the t = 0 arrivals — and sees a fleet where nothing has finished.
  const auto& first = hub.sample(0);
  EXPECT_LE(first.t, 0.2);
  EXPECT_GT(first.running, 0);
  EXPECT_EQ(first.completed, 0u);
  // Cumulative counters are monotonic across the series, and by the last
  // sample some tenants have completed while others still run.
  for (std::size_t i = 1; i < hub.size(); ++i) {
    EXPECT_GE(hub.sample(i).completed, hub.sample(i - 1).completed);
    EXPECT_GE(hub.sample(i).t, hub.sample(i - 1).t);
  }
  const auto& last = hub.sample(hub.size() - 1);
  EXPECT_GT(last.completed, 0u);
  // The single-site fleet reports its power on site 0 of the per-site lane.
  ASSERT_EQ(last.site_power_w.size(), 1u);
  EXPECT_DOUBLE_EQ(last.site_power_w[0], last.power_w);
}

TEST(SchedulerTelemetry, WatchdogAbortTriggersTheFlightRecorder) {
  SchedulerPolicy policy;
  policy.max_concurrent = 4;
  policy.max_queue_depth = 8;
  // A deadline no transfer can meet: every attempt aborts, and each abort
  // must freeze a flight-recorder window naming the tenant.
  policy.supervision.attempt_deadline = 0.5;
  policy.supervision.max_attempts = 1;
  policy.horizon = 600.0;
  obs::TickFlightRecorder rec(32, 2);
  Scheduler scheduler(tiny_xsede(), gbps(7.0), policy, fast_cfg());
  scheduler.set_flight_recorder(&rec);
  std::vector<SchedulerJob> jobs;
  for (int i = 0; i < 4; ++i) {
    TransferJob job;
    job.name = "slow" + std::to_string(i);
    job.dataset = job_dataset(2 * kGB, 1);  // far more than 0.5 s of bytes
    job.policy = JobPolicy::kBalanced;
    job.max_channels = 2;
    jobs.push_back({std::move(job), 0.0});
  }
  const auto report = scheduler.run(std::move(jobs));
  EXPECT_EQ(report.completed, 0);
  EXPECT_GT(rec.triggers(), 0u);
  ASSERT_FALSE(rec.dumps().empty());
  EXPECT_NE(rec.dumps()[0].reason.find("watchdog abort"), std::string::npos);
  // The frozen window carries the ticks leading up to the abort.
  EXPECT_FALSE(rec.dumps()[0].ticks.empty());
}

TEST(SchedulerTelemetry, CleanRunLeavesTheFlightRecorderQuiet) {
  obs::TickFlightRecorder rec;
  SchedulerPolicy policy;
  policy.max_concurrent = 8;
  policy.max_queue_depth = 8;
  Scheduler scheduler(tiny_xsede(), gbps(7.0), policy, fast_cfg());
  scheduler.set_flight_recorder(&rec);
  const auto report = scheduler.run(small_fleet(8));
  EXPECT_EQ(report.completed, 8);
  EXPECT_EQ(rec.triggers(), 0u);
}

}  // namespace
}  // namespace eadt::exp
