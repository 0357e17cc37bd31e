#include "testbeds/testbeds.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "net/topology.hpp"

namespace eadt::testbeds {
namespace {

host::ServerSpec xsede_dtn(const std::string& name) {
  host::ServerSpec s;
  s.name = name;
  s.cores = 4;
  s.cpu_tdp = 115.0;
  s.nic_speed = gbps(10.0);
  s.mem_total = 64ULL * kGB;
  s.disk = {host::DiskKind::kParallelArray, gbps(16.0), 6.0, 0.0};
  s.per_core_goodput = gbps(3.0);
  s.per_stream_disk = gbps(1.1);
  s.proc_base_util = 0.025;
  s.util_per_gbps = 0.02;
  s.util_contention = 0.12;
  s.cs_alpha = 0.03;
  s.cs_util_per_thread = 0.02;
  return s;
}

host::ServerSpec futuregrid_node(const std::string& name) {
  host::ServerSpec s;
  s.name = name;
  s.cores = 4;
  s.cpu_tdp = 95.0;
  s.nic_speed = gbps(1.0);
  s.mem_total = 24ULL * kGB;
  s.disk = {host::DiskKind::kParallelArray, gbps(4.0), 5.0, 0.0};
  s.per_core_goodput = gbps(0.70);
  s.per_stream_disk = mbps(700.0);
  s.proc_base_util = 0.012;
  s.util_per_gbps = 0.22;  // 1 Gbps on older silicon costs relatively more
  s.util_contention = 0.04;
  s.cs_alpha = 0.05;
  s.cs_util_per_thread = 0.006;
  return s;
}

host::ServerSpec didclab_ws(const std::string& name) {
  host::ServerSpec s;
  s.name = name;
  s.cores = 4;
  s.cpu_tdp = 84.0;
  s.nic_speed = gbps(1.0);
  s.mem_total = 16ULL * kGB;
  s.disk = {host::DiskKind::kSingleDisk, mbps(780.0), 0.0, 0.20};
  s.per_core_goodput = gbps(1.5);
  s.per_stream_disk = mbps(800.0);
  s.proc_base_util = 0.02;
  s.util_per_gbps = 0.25;
  s.util_contention = 0.10;
  s.cs_alpha = 0.05;
  s.cs_util_per_thread = 0.015;
  return s;
}

}  // namespace

proto::Dataset Testbed::make_dataset() const {
  if (!dataset_listing_path.empty()) {
    std::ifstream in(dataset_listing_path);
    if (!in) {
      throw std::runtime_error("cannot open dataset listing " + dataset_listing_path);
    }
    std::string error;
    auto ds = proto::dataset_from_listing(in, &error);
    if (!ds) {
      throw std::runtime_error("bad dataset listing " + dataset_listing_path + ": " +
                               error);
    }
    return *ds;
  }
  return proto::generate_dataset(recipe, Rng(dataset_seed));
}

Testbed scaled(Testbed t, unsigned divisor) {
  const Bytes d = std::max(1u, divisor);
  t.recipe.total_bytes /= d;
  for (auto& band : t.recipe.bands) {
    band.max_size = std::max(band.max_size / d, band.min_size * 2);
  }
  return t;
}

Testbed xsede() {
  Testbed t;
  t.env.name = "XSEDE Stampede(TACC) - Gordon(SDSC)";
  t.env.source.site = "stampede";
  t.env.destination.site = "gordon";
  for (int i = 0; i < 4; ++i) {
    t.env.source.servers.push_back(xsede_dtn("stampede-dtn" + std::to_string(i)));
    t.env.destination.servers.push_back(xsede_dtn("gordon-dtn" + std::to_string(i)));
  }
  t.env.source.power = {400.0, 8.0, 6.0, 6.0, 10.0};
  t.env.destination.power = t.env.source.power;
  t.env.path = {gbps(10.0), 0.040, 32 * kMB, 1500};
  t.env.congestion = {};
  t.env.route = net::xsede_route();
  t.env.warm_fraction = 0.7;
  t.env.per_file_cost = 0.08;  // Lustre metadata + stripe setup per file
  // 160 GB, 3 MB - 20 GB (Section 3's 10 Gbps dataset): a quarter of the
  // bytes in sub-BDP files, the rest split between medium and bulk files.
  t.recipe.name = "xsede-160GB";
  t.recipe.total_bytes = 160ULL * kGB;
  t.recipe.bands = {
      {3 * kMB, 50 * kMB, 0.25},
      {50 * kMB, 1 * kGB, 0.35},
      {1 * kGB, 20 * kGB, 0.40},
  };
  return t;
}

Testbed futuregrid() {
  Testbed t;
  t.env.name = "FutureGrid Alamo(TACC) - Hotel(UChicago)";
  t.env.source.site = "alamo";
  t.env.destination.site = "hotel";
  for (int i = 0; i < 2; ++i) {
    t.env.source.servers.push_back(futuregrid_node("alamo-node" + std::to_string(i)));
    t.env.destination.servers.push_back(futuregrid_node("hotel-node" + std::to_string(i)));
  }
  t.env.source.power = {320.0, 8.0, 6.0, 5.0, 5.0};
  t.env.destination.power = t.env.source.power;
  t.env.path = {gbps(1.0), 0.028, 32 * kMB, 1500};
  t.env.congestion = {};
  t.env.route = net::futuregrid_route();
  t.env.warm_fraction = 0.85;  // short RTT gaps barely decay the window
  t.env.per_file_cost = 0.008;
  // 40 GB, 3 MB - 5 GB (Section 3's 1 Gbps dataset).
  t.recipe.name = "futuregrid-40GB";
  t.recipe.total_bytes = 40ULL * kGB;
  t.recipe.bands = {
      {3 * kMB, 30 * kMB, 0.25},
      {30 * kMB, 300 * kMB, 0.35},
      {300 * kMB, 5 * kGB, 0.40},
  };
  return t;
}

Testbed didclab() {
  Testbed t;
  t.env.name = "DIDCLAB WS9 - WS6 (LAN)";
  t.env.source.site = "ws9";
  t.env.destination.site = "ws6";
  t.env.source.servers.push_back(didclab_ws("ws9"));
  t.env.destination.servers.push_back(didclab_ws("ws6"));
  t.env.source.power = {240.0, 8.0, 8.0, 4.0, 5.0};
  t.env.destination.power = t.env.source.power;
  t.env.path = {gbps(1.0), 0.0002, 32 * kMB, 1500};
  t.env.congestion = {};
  t.env.route = net::didclab_route();
  t.env.per_file_cost = 0.015;
  t.recipe.name = "didclab-40GB";
  t.recipe.total_bytes = 40ULL * kGB;
  t.recipe.bands = {
      {3 * kMB, 30 * kMB, 0.25},
      {30 * kMB, 300 * kMB, 0.35},
      {300 * kMB, 5 * kGB, 0.40},
  };
  return t;
}

std::vector<Testbed> all_testbeds() { return {xsede(), futuregrid(), didclab()}; }

}  // namespace eadt::testbeds
