// The observability layer's contract: metrics/trace/decision primitives are
// correct and deterministic, sessions emit the documented span hierarchy,
// attaching sinks never changes a run's physics, exports stay byte-identical
// across --jobs N, and the edge cases the subsystem exists for — resumed
// legs, injected brownouts and channel drops — are all visible in it.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <thread>
#include <tuple>

#include "baselines/baselines.hpp"
#include "core/algorithms.hpp"
#include "exp/sweep.hpp"
#include "obs/obs.hpp"
#include "proto/session.hpp"
#include "test_env.hpp"
#include "util/json.hpp"

namespace eadt {
namespace {

using testutil::dataset_of;
using testutil::mixed_dataset;
using testutil::small_env;

// --- util/json -------------------------------------------------------------

TEST(JsonEscape, CleanStringsPassThrough) {
  EXPECT_EQ(json_escape("plain ascii, spaces & unicode: \xc3\xa9"),
            "plain ascii, spaces & unicode: \xc3\xa9");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01z", 3)), "a\\u0001z");
}

TEST(JsonEscape, WriteJsonStringQuotes) {
  std::ostringstream os;
  write_json_string(os, "say \"hi\"");
  EXPECT_EQ(os.str(), "\"say \\\"hi\\\"\"");
}

// --- metrics ---------------------------------------------------------------

TEST(Metrics, CounterGaugeHistogramBasics) {
  obs::MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());

  reg.counter("a.count").add(3);
  reg.counter("a.count").add(2);
  EXPECT_EQ(reg.counter("a.count").value(), 5u);

  reg.gauge("a.peak").set_max(2.0);
  reg.gauge("a.peak").set_max(7.0);
  reg.gauge("a.peak").set_max(4.0);  // max is sticky
  EXPECT_DOUBLE_EQ(reg.gauge("a.peak").value(), 7.0);

  auto& h = reg.histogram("a.hist", {1.0, 10.0});
  h.observe(0.5);   // bucket 0 (<= 1)
  h.observe(5.0);   // bucket 1 (<= 10)
  h.observe(50.0);  // overflow
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_NEAR(h.sum(), 55.5, 1e-2);  // 1/256 fixed-point quantization
  EXPECT_FALSE(reg.empty());
}

TEST(Metrics, SnapshotIsSortedAndJsonHasSchema) {
  obs::MetricsRegistry reg;
  reg.counter("z.last").add(1);
  reg.counter("a.first").add(1);
  reg.gauge("mid").set(3.5);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a.first");
  EXPECT_EQ(snap[1].name, "z.last");
  EXPECT_EQ(snap[2].name, "mid");

  std::ostringstream os;
  reg.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\": \"eadt-metrics-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"a.first\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"mid\": 3.5"), std::string::npos);
}

TEST(Metrics, ConcurrentAddsCommute) {
  obs::MetricsRegistry reg;
  auto& c = reg.counter("hits");
  auto& h = reg.histogram("obs", {10.0, 100.0});
  std::vector<std::thread> pool;
  for (int w = 0; w < 4; ++w) {
    pool.emplace_back([&, w] {
      for (int i = 0; i < 1000; ++i) {
        c.add(1);
        h.observe(static_cast<double>(w * 50));
        reg.gauge("peak").set_max(static_cast<double>(w));
      }
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(c.value(), 4000u);
  EXPECT_EQ(h.count(), 4000u);
  EXPECT_DOUBLE_EQ(reg.gauge("peak").value(), 3.0);
}

// --- trace buffer ----------------------------------------------------------

TEST(Trace, SpansAndChromeExport) {
  obs::TraceBuffer buf;
  buf.set_thread_name(obs::kControlTid, "control");
  buf.begin(0.0, obs::kControlTid, "transfer", "session", {"bytes", 100.0});
  buf.instant(1.0, obs::kControlTid, "checkpoint", "session");
  buf.counter(2.0, "goodput_mbps", 123.5);
  buf.end(3.0, obs::kControlTid);
  EXPECT_EQ(buf.events().size(), 4u);
  EXPECT_EQ(buf.dropped(), 0u);

  std::ostringstream os;
  obs::write_chrome_trace(os, {{"task 0", &buf}});
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"E\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("task 0"), std::string::npos);
  // Seconds become microseconds (3 s -> 3e6 us, shortest round-trip form).
  EXPECT_NE(json.find("\"ts\": 3e+06"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
}

TEST(Trace, InternDeduplicates) {
  obs::TraceBuffer buf;
  const char* a = buf.intern("HTEE probe cc=3");
  const char* b = buf.intern("HTEE probe cc=3");
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "HTEE probe cc=3");
}

TEST(Trace, CapDropsNewSpansButKeepsEnds) {
  obs::TraceBuffer buf(4);
  for (int i = 0; i < 10; ++i) buf.begin(i, obs::kControlTid, "s", "c");
  EXPECT_EQ(buf.events().size(), 4u);
  EXPECT_EQ(buf.dropped(), 6u);
  buf.end(99.0, obs::kControlTid);  // End events always land
  EXPECT_EQ(buf.events().size(), 5u);

  std::ostringstream os;
  obs::write_chrome_trace(os, {{"t", &buf}});
  EXPECT_NE(os.str().find("trace-truncated"), std::string::npos);
  EXPECT_NE(os.str().find("\"dropped\": 6"), std::string::npos);
}

// --- decision log ----------------------------------------------------------

TEST(Decisions, JsonAndNarrative) {
  obs::DecisionLog log;
  obs::Decision d;
  d.at = 5.0;
  d.kind = obs::DecisionKind::kHteeProbe;
  d.actor = "HTEE";
  d.subject = "probe cc=3";
  d.detail = "ratio \"best\" so far";  // quote must be escaped in JSON
  d.level = 3;
  d.ratio = 1.5e6;
  log.record(d);

  std::ostringstream json;
  log.write_json(json);
  EXPECT_NE(json.str().find("\"schema\": \"eadt-decisions-v1\""), std::string::npos);
  EXPECT_NE(json.str().find("\"kind\": \"htee-probe\""), std::string::npos);
  EXPECT_NE(json.str().find("\\\"best\\\""), std::string::npos);

  std::ostringstream text;
  log.write_narrative(text);
  EXPECT_NE(text.str().find("HTEE"), std::string::npos);
  EXPECT_NE(text.str().find("probe cc=3"), std::string::npos);
}

// --- session emission ------------------------------------------------------

TEST(SessionObs, EmitsSpansMetricsAndLeavesPhysicsUntouched) {
  const auto env = small_env();
  const auto ds = mixed_dataset();
  const auto plan = baselines::plan_promc(env, ds, 3);

  proto::TransferSession plain(env, ds, plan);
  const auto r_plain = plain.run();

  obs::MetricsRegistry metrics;
  obs::TraceBuffer trace;
  obs::DecisionLog decisions;
  obs::ObsSinks sinks{&metrics, &trace, &decisions};
  proto::SessionConfig cfg;
  cfg.obs = &sinks;
  proto::TransferSession session(env, ds, plan, cfg);
  const auto r = session.run();

  // Observation must not perturb the run.
  EXPECT_DOUBLE_EQ(r.duration, r_plain.duration);
  EXPECT_DOUBLE_EQ(r.end_system_energy, r_plain.end_system_energy);
  EXPECT_EQ(r.bytes, r_plain.bytes);

  // Metrics: ticks counted, bytes attributed, run histograms filled.
  EXPECT_EQ(metrics.counter("session.runs").value(), 1u);
  EXPECT_GT(metrics.counter("session.ticks").value(), 0u);
  EXPECT_EQ(metrics.counter("session.goodput_bytes").value(), r.goodput_bytes());
  EXPECT_EQ(metrics.histogram("session.run_duration_s", {}).count(), 1u);
  // Per-chunk byte counters exist and together account for the goodput.
  std::uint64_t chunk_bytes = 0;
  for (const auto& m : metrics.snapshot()) {
    if (m.name.rfind("session.chunk_bytes.", 0) == 0) chunk_bytes += m.count;
  }
  EXPECT_EQ(chunk_bytes, r.goodput_bytes());

  // Trace: one transfer span, at least one lease span, chunk activity, and a
  // completion instant — all the layers of the documented hierarchy.
  const auto has_event = [&](obs::TraceEvent::Phase ph, const std::string& name) {
    return std::any_of(trace.events().begin(), trace.events().end(),
                       [&](const obs::TraceEvent& e) {
                         return e.phase == ph && e.name != nullptr && name == e.name;
                       });
  };
  EXPECT_TRUE(has_event(obs::TraceEvent::Phase::kBegin, "transfer"));
  EXPECT_TRUE(has_event(obs::TraceEvent::Phase::kBegin, "chunk-active"));
  EXPECT_TRUE(has_event(obs::TraceEvent::Phase::kInstant, "run-complete"));
  const bool has_lease =
      std::any_of(trace.events().begin(), trace.events().end(), [](const auto& e) {
        return e.phase == obs::TraceEvent::Phase::kBegin && e.name != nullptr &&
               std::string_view(e.name).substr(0, 6) == "lease ";
      });
  EXPECT_TRUE(has_lease);

  // Every Begin is balanced by an End (the exporter closes nothing itself).
  int open = 0;
  for (const auto& e : trace.events()) {
    if (e.phase == obs::TraceEvent::Phase::kBegin) ++open;
    if (e.phase == obs::TraceEvent::Phase::kEnd) --open;
  }
  EXPECT_EQ(open, 0);
}

TEST(SessionObs, HteeDecisionLogNamesEachProbedLevelWithItsRatio) {
  const auto env = small_env();
  // Big enough for several 5 s probe windows at ~1 Gbps.
  proto::Dataset ds;
  for (int i = 0; i < 16; ++i) ds.files.push_back({200 * kMB});

  obs::MetricsRegistry metrics;
  obs::TraceBuffer trace;
  obs::DecisionLog decisions;
  obs::ObsSinks sinks{&metrics, &trace, &decisions};
  proto::SessionConfig cfg;
  cfg.obs = &sinks;

  const int max_channels = 8;
  core::HteeController controller(max_channels);
  proto::TransferSession session(
      env, ds, core::plan_htee(env, ds, max_channels, &decisions), cfg);
  const auto result = session.run(&controller);
  EXPECT_TRUE(result.completed);

  // Every probed level appears as a decision carrying its measured
  // throughput-per-joule ratio — the acceptance criterion of the issue.
  std::vector<int> probed;
  for (const auto& d : decisions.decisions()) {
    if (d.kind != obs::DecisionKind::kHteeProbe) continue;
    probed.push_back(d.level);
    EXPECT_STREQ(d.actor, "HTEE");
    EXPECT_GT(d.ratio, 0.0) << "probe cc=" << d.level;
    EXPECT_GT(d.measured_mbps, 0.0) << "probe cc=" << d.level;
    EXPECT_NE(d.subject.find("cc=" + std::to_string(d.level)), std::string::npos);
  }
  ASSERT_GE(probed.size(), 2u);
  for (std::size_t i = 0; i < probed.size(); ++i) {
    EXPECT_EQ(probed[i], 1 + 2 * static_cast<int>(i));  // 1, 3, 5, ... stride 2
  }
  EXPECT_EQ(metrics.counter("algo.htee.probes").value(), probed.size());

  // Each probe is also a span on the control track.
  const bool probe_span =
      std::any_of(trace.events().begin(), trace.events().end(), [](const auto& e) {
        return e.phase == obs::TraceEvent::Phase::kBegin && e.name != nullptr &&
               std::string_view(e.name).substr(0, 10) == "HTEE probe";
      });
  EXPECT_TRUE(probe_span);
}

TEST(SessionObs, MinEPlanDecisionsExplainPartitionAndChannelWalk) {
  const auto env = small_env();
  const auto ds = mixed_dataset();
  obs::DecisionLog log;
  const auto plan = core::plan_min_energy(env, ds, 6, &log);
  ASSERT_FALSE(plan.chunks.empty());
  ASSERT_FALSE(log.empty());
  // The tuner explains each chunk's pipelining/parallelism pick first; the
  // partition record then summarizes the chunking those picks belong to.
  const auto count = [&](obs::DecisionKind kind) {
    return std::count_if(log.decisions().begin(), log.decisions().end(),
                         [&](const auto& d) { return d.kind == kind; });
  };
  EXPECT_EQ(log.decisions().front().kind, obs::DecisionKind::kPlanTune);
  EXPECT_EQ(count(obs::DecisionKind::kPlanTune),
            static_cast<std::ptrdiff_t>(plan.chunks.size()));
  EXPECT_EQ(count(obs::DecisionKind::kPlanPartition), 1);
  EXPECT_GE(count(obs::DecisionKind::kPlanChannelWalk), 1);
}

// --- resumed legs and faults -----------------------------------------------

TEST(SessionObs, ResumedLegUsesAbsoluteSimTime) {
  const auto env = small_env();
  proto::Dataset ds;
  for (int i = 0; i < 8; ++i) ds.files.push_back({100 * kMB});
  const auto plan = baselines::plan_promc(env, ds, 2);

  // Leg 1: interrupt at 3 s.
  proto::SessionConfig first_cfg;
  first_cfg.max_sim_time = 3.0;
  proto::TransferSession first(env, ds, plan, first_cfg);
  const auto r1 = first.run();
  ASSERT_FALSE(r1.completed);
  ASSERT_TRUE(r1.checkpoint.has_value());
  const Seconds taken_at = r1.checkpoint->taken_at;
  ASSERT_GT(taken_at, 0.0);

  // Leg 2: resume with obs sinks attached.
  obs::MetricsRegistry metrics;
  obs::TraceBuffer trace;
  obs::ObsSinks sinks{&metrics, &trace, nullptr};
  proto::SessionConfig cfg;
  cfg.obs = &sinks;
  proto::TransferSession second(env, ds, plan, cfg);
  std::string err;
  ASSERT_TRUE(second.resume_from(*r1.checkpoint, &err)) << err;
  const auto r2 = second.run();
  EXPECT_TRUE(r2.completed);

  // Every span in the resumed leg sits at absolute transfer time too: the
  // earliest event (the transfer span open) is at the resume point, not 0.
  ASSERT_FALSE(trace.events().empty());
  double min_t = trace.events().front().t;
  for (const auto& e : trace.events()) min_t = std::min(min_t, e.t);
  EXPECT_GE(min_t, taken_at);
  EXPECT_DOUBLE_EQ(trace.events().front().t, taken_at);
}

TEST(SessionObs, BrownoutAndDownChannelsReachTheTrace) {
  const auto env = small_env();
  proto::Dataset ds;
  for (int i = 0; i < 8; ++i) ds.files.push_back({100 * kMB});
  const auto plan = baselines::plan_promc(env, ds, 4);

  proto::FaultPlan faults;
  faults.brownouts.push_back({1.0, 2.0, 0.4});
  faults.channel_drops.push_back({1.5, 0});

  obs::MetricsRegistry metrics;
  obs::TraceBuffer trace;
  obs::ObsSinks sinks{&metrics, &trace, nullptr};
  proto::SessionConfig cfg;
  cfg.obs = &sinks;
  cfg.sample_interval = 0.5;  // fine-grained counter track
  proto::TransferSession session(env, ds, plan, cfg);
  session.set_fault_plan(faults);
  const auto result = session.run();
  EXPECT_TRUE(result.completed);

  // Both faults reach the span trace: brownout and drop instants plus the
  // path_capacity_factor and down_channels counter tracks.
  const auto counter_with = [&](const char* name, auto pred) {
    return std::any_of(trace.events().begin(), trace.events().end(), [&](const auto& e) {
      return e.phase == obs::TraceEvent::Phase::kCounter && e.name != nullptr &&
             std::string_view(e.name) == name && pred(e.args[0].value);
    });
  };
  const auto has_instant = [&](const char* name) {
    return std::any_of(trace.events().begin(), trace.events().end(), [&](const auto& e) {
      return e.phase == obs::TraceEvent::Phase::kInstant && e.name != nullptr &&
             std::string_view(e.name) == name;
    });
  };
  EXPECT_TRUE(has_instant("brownout"));
  EXPECT_TRUE(has_instant("brownout-clear"));
  EXPECT_TRUE(has_instant("channel-drop"));
  EXPECT_TRUE(counter_with("path_capacity_factor", [](double v) { return v == 0.4; }));
  EXPECT_TRUE(counter_with("down_channels", [](double v) { return v > 0.0; }));
  EXPECT_GE(metrics.counter("session.path_brownouts").value(), 1u);
}

// --- sweep determinism -----------------------------------------------------

TEST(SweepObs, ExportsAreByteIdenticalAcrossJobCounts) {
  auto testbed = testbeds::xsede();
  testbed.recipe.total_bytes /= 64;
  const auto dataset = testbed.make_dataset();

  const auto run_with = [&](int jobs) {
    auto collector = std::make_unique<obs::ObsCollector>();
    std::vector<exp::SweepTask> tasks;
    for (const auto a : {exp::Algorithm::kSc, exp::Algorithm::kMinE,
                         exp::Algorithm::kHtee, exp::Algorithm::kProMc}) {
      for (const int cc : {2, 6}) {
        exp::SweepTask task;
        task.testbed = testbed;
        task.dataset = dataset;
        task.algorithm = a;
        task.concurrency = cc;
        task.config.sample_interval = 1.0;
        task.obs = collector.get();
        tasks.push_back(std::move(task));
      }
    }
    const auto results = exp::SweepRunner(jobs).run(tasks);
    std::ostringstream trace, metrics, decisions;
    collector->write_chrome_trace(trace);
    collector->write_metrics_json(metrics);
    collector->write_decisions_json(decisions);
    return std::tuple{exp::sweep_payload(results), trace.str(), metrics.str(),
                      decisions.str()};
  };

  const auto seq = run_with(1);
  const auto par = run_with(4);
  EXPECT_EQ(std::get<0>(par), std::get<0>(seq));
  EXPECT_EQ(std::get<1>(par), std::get<1>(seq)) << "chrome trace differs";
  EXPECT_EQ(std::get<2>(par), std::get<2>(seq)) << "metrics json differs";
  EXPECT_EQ(std::get<3>(par), std::get<3>(seq)) << "decisions json differs";
  // And the exports are substantive, not vacuously equal.
  EXPECT_NE(std::get<1>(seq).find("\"transfer\""), std::string::npos);
  EXPECT_NE(std::get<2>(seq).find("session.runs"), std::string::npos);
  EXPECT_NE(std::get<3>(seq).find("plan-partition"), std::string::npos);
}

// --- bench record ----------------------------------------------------------

TEST(BenchJson, MetricsSectionOnlyWhenPresentAndNamesAreEscaped) {
  exp::BenchRecord record;
  record.name = "obs \"quoted\"\nname";  // hostile name must stay valid JSON
  record.commit = "test";

  std::ostringstream without;
  exp::write_bench_json(without, record);
  EXPECT_EQ(without.str().find("\"metrics\""), std::string::npos);
  EXPECT_NE(without.str().find("obs \\\"quoted\\\"\\nname"), std::string::npos);

  obs::MetricsRegistry reg;
  reg.counter("session.runs").add(2);
  record.metrics = reg.snapshot();
  std::ostringstream with;
  exp::write_bench_json(with, record);
  EXPECT_NE(with.str().find("\"metrics\""), std::string::npos);
  EXPECT_NE(with.str().find("\"session.runs\": 2"), std::string::npos);
}

}  // namespace
}  // namespace eadt
