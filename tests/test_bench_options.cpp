#include "bench_common.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace eadt::bench {
namespace {

std::optional<Options> try_parse(std::vector<const char*> args,
                                 std::string* error = nullptr) {
  args.insert(args.begin(), "bench");  // argv[0]
  return try_parse_options(static_cast<int>(args.size()),
                           const_cast<char**>(args.data()), error);
}

Options parse(std::vector<const char*> args) {
  const auto opt = try_parse(std::move(args));
  EXPECT_TRUE(opt.has_value());
  return opt.value_or(Options{});
}

TEST(BenchOptions, Defaults) {
  const auto opt = parse({});
  EXPECT_EQ(opt.bench_name, "bench");
  EXPECT_EQ(opt.scale, 1u);
  EXPECT_FALSE(opt.csv);
  EXPECT_TRUE(opt.plot_stem.empty());
  EXPECT_EQ(opt.jobs, 0);  // 0 = defer to EADT_JOBS / hardware
  EXPECT_FALSE(opt.quick);
  EXPECT_TRUE(opt.json);
  EXPECT_TRUE(opt.json_path.empty());
  EXPECT_FALSE(opt.help);
}

TEST(BenchOptions, ScaleForms) {
  EXPECT_EQ(parse({"--scale", "8"}).scale, 8u);
  EXPECT_EQ(parse({"--scale=16"}).scale, 16u);
  // Zero and below clamp to 1, never 0 (a divisor).
  EXPECT_EQ(parse({"--scale", "0"}).scale, 1u);
  EXPECT_EQ(parse({"--scale", "-3"}).scale, 1u);
  // A value that is not a whole number is refused, naming the flag.
  for (const char* bad : {"--scale=junk", "--scale=4x", "--scale=", "--scale=99999999999"}) {
    std::string error;
    EXPECT_FALSE(try_parse({bad}, &error).has_value()) << bad;
    EXPECT_NE(error.find("--scale"), std::string::npos) << bad;
  }
}

TEST(BenchOptions, CsvAndPlot) {
  const auto opt = parse({"--csv", "--plot", "out/fig2"});
  EXPECT_TRUE(opt.csv);
  EXPECT_EQ(opt.plot_stem, "out/fig2");
  EXPECT_EQ(parse({"--plot=stem"}).plot_stem, "stem");
}

TEST(BenchOptions, JobsForms) {
  EXPECT_EQ(parse({"--jobs", "4"}).jobs, 4);
  EXPECT_EQ(parse({"--jobs=2"}).jobs, 2);
  // Negative never reaches the runner; clamps to "auto".
  EXPECT_EQ(parse({"--jobs", "-7"}).jobs, 0);
  EXPECT_EQ(parse({"--jobs", "256"}).jobs, exp::kMaxJobs);
  // Text that is not a whole number, and anything above the ceiling, is
  // refused before any thread starts (no pool is built here).
  for (const auto& args : {std::vector<const char*>{"--jobs", "4x"}, {"--jobs=junk"},
                           {"--jobs", "257"}, {"--jobs=100000"}}) {
    std::string error;
    EXPECT_FALSE(try_parse(args, &error).has_value()) << args.back();
    EXPECT_NE(error.find("--jobs"), std::string::npos) << args.back();
  }
}


TEST(BenchOptions, QuickRaisesScaleToSmokeSize) {
  EXPECT_EQ(parse({"--quick"}).scale, 32u);
  EXPECT_TRUE(parse({"--quick"}).quick);
  // --quick is a floor, not an override: a bigger explicit scale survives.
  EXPECT_EQ(parse({"--quick", "--scale", "64"}).scale, 64u);
  EXPECT_EQ(parse({"--scale", "4", "--quick"}).scale, 32u);
}

TEST(BenchOptions, JsonControls) {
  EXPECT_EQ(parse({"--json", "/tmp/out.json"}).json_path, "/tmp/out.json");
  EXPECT_EQ(parse({"--json=rec.json"}).json_path, "rec.json");
  EXPECT_FALSE(parse({"--no-json"}).json);
  EXPECT_TRUE(parse({}).json);
}

TEST(BenchOptions, ObservabilityFlags) {
  EXPECT_FALSE(parse({}).observing());
  const auto opt =
      parse({"--trace-out", "t.json", "--metrics-out=m.json", "--decisions", "d.json"});
  EXPECT_EQ(opt.trace_out, "t.json");
  EXPECT_EQ(opt.metrics_out, "m.json");
  EXPECT_EQ(opt.decisions_out, "d.json");
  EXPECT_TRUE(opt.observing());
  // Any one flag alone turns observation on.
  EXPECT_TRUE(parse({"--trace-out=t.json"}).observing());
  EXPECT_TRUE(parse({"--metrics-out", "m.json"}).observing());
  EXPECT_TRUE(parse({"--decisions=d.json"}).observing());
}

TEST(BenchOptions, ObservabilityFlagsRequireValues) {
  for (const char* flag : {"--trace-out", "--metrics-out", "--decisions"}) {
    std::string error;
    EXPECT_FALSE(try_parse({flag}, &error).has_value()) << flag;
    EXPECT_NE(error.find("requires a value"), std::string::npos) << flag;
  }
}

TEST(BenchOptions, MetricsListenForms) {
  EXPECT_EQ(parse({}).metrics_listen, -1);  // default: no listener
  EXPECT_EQ(parse({"--metrics-listen", "9109"}).metrics_listen, 9109);
  EXPECT_EQ(parse({"--metrics-listen=0"}).metrics_listen, 0);  // ephemeral
  std::string error;
  EXPECT_FALSE(try_parse({"--metrics-listen", "70000"}, &error).has_value());
  EXPECT_NE(error.find("--metrics-listen"), std::string::npos);
  EXPECT_FALSE(try_parse({"--metrics-listen"}, &error).has_value());
}

TEST(BenchOptions, ForceFlag) {
  EXPECT_FALSE(parse({}).force);
  EXPECT_TRUE(parse({"--force"}).force);
}

TEST(BenchOptions, OverwriteRefusalGuardsExistingOutputs) {
  // A path that exists is refused without --force; --force and fresh paths
  // pass. The BENCH json is exempt — it is rewritten every run by design.
  const std::string existing = ::testing::TempDir() + "bench_options_existing.json";
  { std::ofstream touch(existing); }

  Options opt;
  EXPECT_FALSE(overwrite_refusal(opt).has_value());
  opt.trace_out = existing;
  const auto refusal = overwrite_refusal(opt);
  ASSERT_TRUE(refusal.has_value());
  EXPECT_NE(refusal->find(existing), std::string::npos);
  EXPECT_NE(refusal->find("--force"), std::string::npos);
  opt.force = true;
  EXPECT_FALSE(overwrite_refusal(opt).has_value());

  Options fresh;
  fresh.metrics_out = ::testing::TempDir() + "bench_options_never_written.json";
  EXPECT_FALSE(overwrite_refusal(fresh).has_value());

  Options json_only;
  json_only.json_path = existing;  // exempt on purpose
  EXPECT_FALSE(overwrite_refusal(json_only).has_value());

  std::remove(existing.c_str());
}

TEST(BenchOptions, HelpIsFlagged) {
  EXPECT_TRUE(parse({"--help"}).help);
  EXPECT_TRUE(parse({"-h"}).help);
}

TEST(BenchOptions, UnknownFlagsAreRejected) {
  std::string error;
  EXPECT_FALSE(try_parse({"--frobnicate", "--csv"}, &error).has_value());
  EXPECT_NE(error.find("--frobnicate"), std::string::npos);
  EXPECT_NE(error.find("unknown option"), std::string::npos);
  // A switch takes no `=value`.
  EXPECT_FALSE(try_parse({"--csv=1"}, &error).has_value());
  EXPECT_NE(error.find("unknown option '--csv=1'"), std::string::npos);
}

TEST(BenchOptions, PositionalArgumentsAreRejected) {
  std::string error;
  EXPECT_FALSE(try_parse({"extra"}, &error).has_value());
  EXPECT_NE(error.find("unexpected argument"), std::string::npos);
}

TEST(BenchOptions, TrailingValuelessFlagsAreErrors) {
  // "--scale" etc. with no following value must not read past argv — and,
  // unlike the old lenient parser, must say so instead of guessing.
  for (const char* flag : {"--scale", "--plot", "--jobs", "--json"}) {
    std::string error;
    EXPECT_FALSE(try_parse({flag}, &error).has_value()) << flag;
    EXPECT_NE(error.find("requires a value"), std::string::npos) << flag;
  }
}

TEST(BenchOptions, BenchNameComesFromArgvBasename) {
  std::vector<const char*> args = {"/build/bench/fig2_xsede", "--csv"};
  const auto opt = try_parse_options(static_cast<int>(args.size()),
                                     const_cast<char**>(args.data()), nullptr);
  ASSERT_TRUE(opt.has_value());
  EXPECT_EQ(opt->bench_name, "fig2_xsede");
}

}  // namespace
}  // namespace eadt::bench
