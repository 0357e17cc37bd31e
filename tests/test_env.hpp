// Shared fixtures: a small, fast synthetic environment and datasets for the
// engine-level tests (integration tests use the real testbeds instead).
#pragma once

#include <vector>

#include "proto/dataset.hpp"
#include "proto/environment.hpp"
#include "proto/session.hpp"

namespace eadt::testutil {

/// A 1 Gbps WAN-ish path (20 ms RTT) between two single-server sites.
/// Small numbers keep each simulated run in the low milliseconds.
inline proto::Environment small_env(int servers_per_site = 1) {
  proto::Environment env;
  env.name = "test-env";
  env.source.site = "src";
  env.destination.site = "dst";
  for (int i = 0; i < servers_per_site; ++i) {
    host::ServerSpec s;
    s.name = (i == 0 ? "srv" : "srv" + std::to_string(i));
    s.cores = 4;
    s.cpu_tdp = 100.0;
    s.nic_speed = gbps(1.0);
    s.mem_total = 16ULL * kGB;
    s.disk = {host::DiskKind::kParallelArray, gbps(2.0), 2.0, 0.0};
    s.per_core_goodput = mbps(600.0);
    env.source.servers.push_back(s);
    env.destination.servers.push_back(s);
  }
  env.source.power = {150.0, 20.0, 20.0, 10.0, 8.0};
  env.destination.power = env.source.power;
  env.path = {gbps(1.0), 0.020, 8 * kMB, 1500};
  env.route = net::didclab_route();
  return env;
}

/// files: explicit sizes.
inline proto::Dataset dataset_of(std::initializer_list<Bytes> sizes) {
  proto::Dataset ds;
  for (Bytes s : sizes) ds.files.push_back({s});
  return ds;
}

/// A mixed dataset around the small_env BDP (2.5 MB): some sub-BDP files,
/// some medium, a couple of large ones. ~600 MB total.
inline proto::Dataset mixed_dataset() {
  proto::Dataset ds;
  for (int i = 0; i < 40; ++i) ds.files.push_back({1 * kMB + i * 30 * kKB});
  for (int i = 0; i < 10; ++i) ds.files.push_back({20 * kMB + i * kMB});
  ds.files.push_back({150 * kMB});
  ds.files.push_back({200 * kMB});
  return ds;
}

/// Journals a running session from the controller hook: make_checkpoint() at
/// every `every`-th sampling window. Tests that need mid-run journal entries
/// take them here; the engine itself journals only an aborted run
/// (RunResult::checkpoint).
class CheckpointTap final : public proto::Controller {
 public:
  explicit CheckpointTap(int every = 1) : every_(every) {}
  void on_sample(proto::TransferSession& session, const proto::SampleStats&) override {
    if (++windows_ % every_ == 0) entries.push_back(session.make_checkpoint());
  }
  std::vector<proto::TransferCheckpoint> entries;

 private:
  int every_;
  int windows_ = 0;
};

}  // namespace eadt::testutil
