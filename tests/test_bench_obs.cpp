// The bench drivers' observability contract: --trace-out/--metrics-out/
// --decisions must attach a real collector and write real files. Guards the
// regression where a bench accepted the flags, ran unobserved, and silently
// wrote nothing.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "baselines/baselines.hpp"
#include "bench_common.hpp"
#include "obs/obs.hpp"
#include "proto/session.hpp"
#include "testbeds/testbeds.hpp"

namespace eadt::bench {
namespace {

/// A writable scratch path that is removed on scope exit.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name) {
    path = ::testing::TempDir() + "/" + name;
  }
  ~TempFile() { std::remove(path.c_str()); }
  [[nodiscard]] std::string slurp() const {
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  }
};

TEST(BenchObs, NoFlagsMeansNoCollector) {
  Options opt;
  EXPECT_FALSE(opt.observing());
  EXPECT_EQ(make_collector(opt), nullptr);
}

TEST(BenchObs, AnySingleFlagMakesACollector) {
  for (auto field : {&Options::trace_out, &Options::metrics_out,
                     &Options::decisions_out}) {
    Options opt;
    opt.*field = "somewhere.json";
    EXPECT_TRUE(opt.observing());
    EXPECT_NE(make_collector(opt), nullptr);
  }
}

TEST(BenchObs, ObservedRunProducesNonEmptyExports) {
  TempFile trace("bench_obs_trace.json");
  TempFile metrics("bench_obs_metrics.json");
  TempFile decisions("bench_obs_decisions.json");
  Options opt;
  opt.trace_out = trace.path;
  opt.metrics_out = metrics.path;
  opt.decisions_out = decisions.path;

  const auto collector = make_collector(opt);
  ASSERT_NE(collector, nullptr);

  // Drive one tiny observed session through the collector, exactly as a
  // bench attaches it (config.obs = one slot).
  const auto tb = testbeds::scaled(testbeds::xsede(), 256);
  const auto ds = tb.make_dataset();
  proto::SessionConfig config;
  config.sample_interval = 1.0;
  config.obs = collector->slot(0, "observed-run");
  proto::TransferSession session(tb.env, ds, baselines::plan_promc(tb.env, ds, 4),
                                 config);
  const auto result = session.run();
  ASSERT_TRUE(result.completed);

  write_obs_outputs(opt, *collector);

  const auto trace_json = trace.slurp();
  EXPECT_NE(trace_json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_json.find("observed-run"), std::string::npos);
  // The engine opened real spans, not just the envelope.
  EXPECT_NE(trace_json.find("\"ph\": \"B\""), std::string::npos);

  const auto metrics_json = metrics.slurp();
  EXPECT_NE(metrics_json.find("\"counters\""), std::string::npos);

  const auto decisions_json = decisions.slurp();
  EXPECT_NE(decisions_json.find("eadt-decisions-v1"), std::string::npos);
}

TEST(BenchObs, UnrequestedExportsAreNotWritten) {
  TempFile metrics("bench_obs_only_metrics.json");
  Options opt;
  opt.metrics_out = metrics.path;
  const auto collector = make_collector(opt);
  ASSERT_NE(collector, nullptr);
  collector->metrics().counter("x").add(1);
  write_obs_outputs(opt, *collector);
  EXPECT_FALSE(metrics.slurp().empty());
  // No trace/decisions paths were configured, so nothing else appears in the
  // scratch directory for this test (nothing to assert beyond "no crash").
}

}  // namespace
}  // namespace eadt::bench
