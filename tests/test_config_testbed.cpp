#include "testbeds/config_testbed.hpp"

#include "exp/runner.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <vector>

namespace eadt::testbeds {
namespace {

Config parse_or_die(std::string_view text) {
  std::string err;
  auto cfg = Config::parse(text, &err);
  EXPECT_TRUE(cfg.has_value()) << err;
  return *cfg;
}

TEST(ConfigTestbed, EmptyConfigYieldsXsedeDefaults) {
  const auto t = testbed_from_config(parse_or_die(""));
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(t->env.path.bandwidth, gbps(10.0));
  EXPECT_EQ(t->env.source.servers.size(), 4u);
  EXPECT_EQ(t->env.name, "custom-testbed");
}

TEST(ConfigTestbed, MinimalOverrides) {
  const auto t = testbed_from_config(parse_or_die(
      "[testbed]\nname = lab-link\nmax_channels = 6\n"
      "[path]\nbandwidth_gbps = 1\nrtt_ms = 10\nbuffer = 8MB\n"
      "[endpoint]\nservers = 2\ncores = 8\n"));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->env.name, "lab-link");
  EXPECT_EQ(t->default_max_channels, 6);
  EXPECT_DOUBLE_EQ(t->env.path.bandwidth, gbps(1.0));
  EXPECT_DOUBLE_EQ(t->env.path.rtt, 0.010);
  EXPECT_EQ(t->env.path.tcp_buffer, 8 * kMB);
  EXPECT_EQ(t->env.source.servers.size(), 2u);
  EXPECT_EQ(t->env.destination.servers.size(), 2u);
  EXPECT_EQ(t->env.source.servers[0].cores, 8);
}

TEST(ConfigTestbed, PerSideOverridesBeatShared) {
  const auto t = testbed_from_config(parse_or_die(
      "[endpoint]\nservers = 2\ncores = 4\n"
      "[source]\nsite = left\nservers = 1\n"
      "[destination]\nsite = right\ncores = 16\n"));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->env.source.servers.size(), 1u);       // per-side override
  EXPECT_EQ(t->env.destination.servers.size(), 2u);  // shared value
  EXPECT_EQ(t->env.source.servers[0].cores, 4);
  EXPECT_EQ(t->env.destination.servers[0].cores, 16);
  EXPECT_EQ(t->env.source.site, "left");
  EXPECT_NE(t->env.destination.servers[0].name.find("right"), std::string::npos);
}

TEST(ConfigTestbed, SingleDiskKind) {
  const auto t = testbed_from_config(parse_or_die(
      "[endpoint]\ndisk = single\ndisk_gbps = 0.8\ndisk_thrash = 0.3\n"));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->env.source.servers[0].disk.kind, host::DiskKind::kSingleDisk);
  EXPECT_NEAR(to_gbps(t->env.source.servers[0].disk.max_bandwidth), 0.8, 1e-9);
  EXPECT_DOUBLE_EQ(t->env.source.servers[0].disk.thrash_alpha, 0.3);
}

TEST(ConfigTestbed, UnknownDiskKindFails) {
  std::string err;
  EXPECT_FALSE(
      testbed_from_config(parse_or_die("[endpoint]\ndisk = quantum\n"), &err)
          .has_value());
  EXPECT_NE(err.find("disk kind"), std::string::npos);
}

TEST(ConfigTestbed, RouteFromDeviceList) {
  const auto t = testbed_from_config(parse_or_die(
      "[route]\ndevices = edge-switch, metro-router, edge-switch\n"));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->env.route.size(), 3u);
  EXPECT_EQ(t->env.route.count(net::DeviceKind::kMetroRouter), 1u);
}

TEST(ConfigTestbed, UnknownDeviceFails) {
  std::string err;
  EXPECT_FALSE(testbed_from_config(
                   parse_or_die("[route]\ndevices = quantum-repeater\n"), &err)
                   .has_value());
  EXPECT_NE(err.find("device kind"), std::string::npos);
}

TEST(ConfigTestbed, DatasetBands) {
  const auto t = testbed_from_config(parse_or_die(
      "[dataset]\ntotal = 4GB\nbands = 1MB:10MB:0.5, 10MB:100MB:0.5\n"));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->recipe.total_bytes, 4 * kGB);
  ASSERT_EQ(t->recipe.bands.size(), 2u);
  EXPECT_EQ(t->recipe.bands[0].min_size, 1 * kMB);
  EXPECT_EQ(t->recipe.bands[1].max_size, 100 * kMB);
  // The recipe is generatable and hits its byte target.
  const auto ds = t->make_dataset();
  EXPECT_NEAR(static_cast<double>(ds.total_bytes()), static_cast<double>(4 * kGB),
              static_cast<double>(4 * kGB) * 0.02);
}

TEST(ConfigTestbed, BadBandsFail) {
  std::string err;
  EXPECT_FALSE(testbed_from_config(
                   parse_or_die("[dataset]\nbands = 1MB:10MB\n"), &err)
                   .has_value());  // missing share
  EXPECT_FALSE(testbed_from_config(
                   parse_or_die("[dataset]\nbands = 10MB:1MB:1.0\n"), &err)
                   .has_value());  // max < min
  EXPECT_FALSE(testbed_from_config(
                   parse_or_die("[dataset]\nbands = 1MB:10MB:0.3\n"), &err)
                   .has_value());  // shares don't sum to 1
  EXPECT_NE(err.find("sum to 1"), std::string::npos);
}

TEST(ConfigTestbed, InvalidPathFails) {
  std::string err;
  EXPECT_FALSE(testbed_from_config(
                   parse_or_die("[path]\nbandwidth_gbps = 0\n"), &err)
                   .has_value());
}

TEST(ConfigTestbed, ServerCountBounds) {
  std::string err;
  EXPECT_FALSE(testbed_from_config(parse_or_die("[endpoint]\nservers = 0\n"), &err)
                   .has_value());
  EXPECT_FALSE(testbed_from_config(parse_or_die("[endpoint]\nservers = 100\n"), &err)
                   .has_value());
}

TEST(ConfigTestbed, PowerSections) {
  const auto t = testbed_from_config(parse_or_die(
      "[power]\ncpu_scale = 111\nactive_base_watts = 3\n"
      "[power.destination]\ncpu_scale = 222\n"));
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(t->env.source.power.cpu_scale, 111.0);
  EXPECT_DOUBLE_EQ(t->env.destination.power.cpu_scale, 222.0);  // per-side wins
  EXPECT_DOUBLE_EQ(t->env.destination.power.active_base, 3.0);  // shared fallback
}

TEST(ConfigTestbed, ReferenceConfigRoundTrips) {
  std::string err;
  const auto cfg = Config::parse(testbed_config_reference(), &err);
  ASSERT_TRUE(cfg.has_value()) << err;
  const auto t = testbed_from_config(*cfg, &err);
  ASSERT_TRUE(t.has_value()) << err;
  const auto reference = xsede();
  EXPECT_DOUBLE_EQ(t->env.path.bandwidth, reference.env.path.bandwidth);
  EXPECT_DOUBLE_EQ(t->env.path.rtt, reference.env.path.rtt);
  EXPECT_EQ(t->env.source.servers.size(), reference.env.source.servers.size());
  EXPECT_EQ(t->env.source.servers[0].cores, reference.env.source.servers[0].cores);
  EXPECT_DOUBLE_EQ(t->env.source.power.cpu_scale, reference.env.source.power.cpu_scale);
  EXPECT_EQ(t->env.route.size(), reference.env.route.size());
  EXPECT_EQ(t->recipe.total_bytes, reference.recipe.total_bytes);
}


TEST(ConfigTestbed, DatasetListingFileWinsOverRecipe) {
  const std::string listing = ::testing::TempDir() + "/eadt_listing.txt";
  {
    std::ofstream out(listing);
    out << "# three files\n10MB a\n20MB b\n30MB c\n";
  }
  const auto t = testbed_from_config(parse_or_die(
      "[dataset]\ntotal = 99GB\nlisting = " + listing + "\n"));
  ASSERT_TRUE(t.has_value());
  const auto ds = t->make_dataset();
  ASSERT_EQ(ds.count(), 3u);
  EXPECT_EQ(ds.total_bytes(), 60 * kMB);
}

TEST(ConfigTestbed, MissingListingFileThrowsAtUse) {
  auto t = testbed_from_config(
      parse_or_die("[dataset]\nlisting = /no/such/listing.txt\n"));
  ASSERT_TRUE(t.has_value());  // configuration parses...
  EXPECT_THROW((void)t->make_dataset(), std::runtime_error);  // ...use fails loudly
}

TEST(ConfigTestbed, ConfiguredTestbedRunsEndToEnd) {
  auto t = testbed_from_config(parse_or_die(
      "[path]\nbandwidth_gbps = 1\nrtt_ms = 5\nbuffer = 8MB\n"
      "[endpoint]\nservers = 1\nper_core_gbps = 0.8\ndisk_gbps = 2\n"
      "[dataset]\ntotal = 512MB\nbands = 1MB:32MB:1.0\n"));
  ASSERT_TRUE(t.has_value());
  const auto ds = t->make_dataset();
  const auto out =
      eadt::exp::run_algorithm(eadt::exp::Algorithm::kProMc, *t, ds, 4);
  EXPECT_TRUE(out.result.completed);
  EXPECT_EQ(out.result.bytes, ds.total_bytes());
}

/// One key line of an INI text: where it sits and what it sets.
struct KeyLine {
  std::size_t line = 0;
  std::string section;
  std::string key;
};

std::vector<KeyLine> key_lines(const std::vector<std::string>& lines) {
  std::vector<KeyLine> out;
  std::string section;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string_view line = trim(lines[i]);
    if (!line.empty() && line.front() == '[') {
      section = std::string(trim(line.substr(1, line.find(']') - 1)));
    } else if (const auto eq = line.find('='); eq != std::string_view::npos) {
      out.push_back({i, section, std::string(trim(line.substr(0, eq)))});
    }
  }
  return out;
}

// Hostile numbers in an INI testbed are refused with an error that names
// their section and key: first eight values no link or server can have (a
// NaN rate or fraction, an infinite RTT, zero cores, MTU or buffer, a
// negative disk rate), then seeded mutations of the reference config: NaN,
// infinities, zero, negatives, 1e300 and garbage swapped into values, and
// lines dropped or duplicated. A mutant that is not refused must build a
// testbed whose short run returns finite numbers and conserves bytes.
TEST(ConfigTestbed, SeededMutationsAreRefusedByNameOrRunCleanly) {
  const std::pair<const char*, const char*> hostile[] = {
      {"path", "bandwidth_gbps = nan"}, {"path", "rtt_ms = inf"},
      {"endpoint", "cores = 0"},         {"endpoint", "disk_gbps = -5"},
      {"path", "mtu = 0"},               {"path", "buffer = 0"},
      {"tuning", "warm_fraction = nan"}, {"endpoint", "per_core_gbps = nan"},
  };
  for (const auto& [section, line] : hostile) {
    const std::string_view text(line);
    const std::string key(trim(text.substr(0, text.find('='))));
    std::string err;
    EXPECT_FALSE(testbed_from_config(
                     parse_or_die(std::string("[") + section + "]\n" + line + "\n"), &err)
                     .has_value())
        << line;
    EXPECT_EQ(err.rfind(std::string(section) + ": " + key + " = '", 0), 0u) << err;
  }

  std::vector<std::string> reference;
  {
    std::istringstream in(testbed_config_reference());
    for (std::string line; std::getline(in, line);) reference.push_back(line);
  }
  const auto keys = key_lines(reference);
  ASSERT_GE(keys.size(), 40u);
  const char* const values[] = {"nan", "-nan", "inf",     "-inf", "0",  "-5",
                                "-0.5", "1e300", "-1e300", "garbage", "12abc", ""};
  proto::Dataset ds;
  for (int i = 1; i <= 8; ++i) ds.files.push_back({static_cast<Bytes>(i) * 4 * kMB});
  proto::SessionConfig run_config;
  run_config.max_sim_time = 3.0;

  constexpr int kMutants = 1500;
  Rng rng(0x1F17E57);
  int refused = 0;
  int ran = 0;
  for (int m = 0; m < kMutants; ++m) {
    std::vector<std::string> lines = reference;
    const KeyLine* swapped = nullptr;
    const auto kind = rng.uniform_int(0, 3);
    if (kind <= 1) {
      swapped = &keys[rng.uniform_int(0, keys.size() - 1)];
      std::string& line = lines[swapped->line];
      line = line.substr(0, line.find('=') + 1) + " " +
             values[rng.uniform_int(0, std::size(values) - 1)];
    } else {
      const auto at = static_cast<std::ptrdiff_t>(rng.uniform_int(0, lines.size() - 1));
      if (kind == 2) {
        lines.erase(lines.begin() + at);
      } else {
        lines.insert(lines.begin() + at, lines[static_cast<std::size_t>(at)]);
      }
    }
    std::string text;
    for (const auto& line : lines) text += line + "\n";
    SCOPED_TRACE("mutant " + std::to_string(m) + ":\n" + text);

    std::string err;
    const auto cfg = Config::parse(text, &err);
    const auto tb = cfg ? testbed_from_config(*cfg, &err) : std::nullopt;
    if (!tb) {
      ++refused;
      if (!cfg) {  // e.g. the first header dropped: the parser names the line
        EXPECT_EQ(err.rfind("line ", 0), 0u) << err;
        continue;
      }
      // Drops and duplicates leave every value valid, so only a swap is refused
      // here, and by the swapped line's own section and key.
      ASSERT_NE(swapped, nullptr) << err;
      EXPECT_EQ(err.rfind(swapped->section + ": " + swapped->key + " = '", 0), 0u) << err;
      continue;
    }
    ++ran;
    const int cc = std::min(tb->default_max_channels, 6);
    const auto out = exp::run_algorithm(exp::Algorithm::kProMc, *tb, ds, cc, run_config);
    const auto& r = out.result;
    ASSERT_TRUE(r.error.empty()) << r.error;
    EXPECT_TRUE(std::isfinite(r.duration) && r.duration > 0.0);
    EXPECT_TRUE(std::isfinite(r.end_system_energy) && r.end_system_energy >= 0.0);
    EXPECT_TRUE(std::isfinite(r.network_energy) && r.network_energy >= 0.0);
    EXPECT_EQ(r.bytes, r.goodput_bytes() + r.faults.wasted_bytes);
    if (r.completed) {
      EXPECT_EQ(r.goodput_bytes(), ds.total_bytes());
    } else {
      ASSERT_TRUE(r.checkpoint.has_value());
      EXPECT_EQ(r.checkpoint->delivered_bytes(ds), r.goodput_bytes());
    }
  }
  // Both outcomes are exercised, each on a fair share of the mutants.
  EXPECT_GT(refused, kMutants / 10);
  EXPECT_GT(ran, kMutants / 10);
}

}  // namespace
}  // namespace eadt::testbeds
