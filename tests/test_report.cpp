#include "exp/report.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace eadt::exp {
namespace {

SweepTable fake_sweep() {
  SweepTable sweep;
  sweep.levels = {1, 2};
  for (const auto alg : {Algorithm::kMinE, Algorithm::kProMc}) {
    for (const int level : sweep.levels) {
      RunOutcome out;
      out.algorithm = alg;
      out.concurrency = level;
      out.result.duration = 10.0;
      out.result.bytes = static_cast<Bytes>(1e9) * static_cast<Bytes>(level);
      out.result.end_system_energy = 100.0 * level;
      sweep.outcomes[alg][level] = out;
    }
  }
  return sweep;
}

TEST(Report, SweepCsvShape) {
  std::ostringstream os;
  write_sweep_csv(os, fake_sweep());
  const std::string csv = os.str();
  EXPECT_NE(csv.find("concurrency,MinE_mbps,MinE_joule,MinE_ratio,ProMC_mbps"),
            std::string::npos);
  // Level 1: 1e9 bytes / 10 s = 800 Mbps, 100 J.
  EXPECT_NE(csv.find("1,800.0,100.0"), std::string::npos);
  EXPECT_NE(csv.find("2,1600.0,200.0"), std::string::npos);
}

TEST(Report, SweepCsvHandlesMissingCells) {
  auto sweep = fake_sweep();
  sweep.levels.push_back(4);  // no outcome recorded at level 4
  std::ostringstream os;
  write_sweep_csv(os, sweep);
  EXPECT_NE(os.str().find("4,,,,,,"), std::string::npos);
}

TEST(Report, GnuplotScriptReferencesAllSeries) {
  std::ostringstream os;
  write_sweep_gnuplot(os, fake_sweep(), "sweep.csv", "fig2");
  const std::string script = os.str();
  EXPECT_NE(script.find("set output 'fig2_a.png'"), std::string::npos);
  EXPECT_NE(script.find("set output 'fig2_b.png'"), std::string::npos);
  EXPECT_NE(script.find("set output 'fig2_c.png'"), std::string::npos);
  EXPECT_NE(script.find("title 'MinE'"), std::string::npos);
  EXPECT_NE(script.find("title 'ProMC'"), std::string::npos);
  // Panel (a) plots column 2 (first algorithm's Mbps), panel (b) column 3.
  EXPECT_NE(script.find("using 1:2"), std::string::npos);
  EXPECT_NE(script.find("using 1:3"), std::string::npos);
  EXPECT_NE(script.find("'sweep.csv'"), std::string::npos);
}

}  // namespace
}  // namespace eadt::exp
