// Replay ladder for the net and proto layers.
//
// A scheduler tick is opaque from outside, so the traced run re-drives a
// workload's tenant sessions through the public phase API on a Simulation
// of its own, the way exp::Scheduler's single-path master tick does:
//
//   begin -> per tick { tick_prepare | collect_link_demands +
//   link_demand_groups | one joint LinkArbiter round | apply_link_allocation
//   | advance_compute | advance_commit } -> finalize
//
// Each phase is timed once across all sessions of a tick (never per call),
// so timer reads stay a negligible share of the tick. Every arbiter round is
// first checked bitwise against net::fair_share_reference_into (and the
// dist solver's expansion against the same reference); a mismatch throws
// before the round is timed. The checked round is then timed three ways:
// the LinkArbiter round the scheduler runs, the reference loop, and
// WaterfillSolver::solve_dist over the collapsed groups.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/service.hpp"
#include "proto/environment.hpp"
#include "proto/faults.hpp"
#include "proto/session.hpp"
#include "sim/simulation.hpp"

namespace perfbench {

class Tracer;

struct ReplayJob {
  eadt::proto::Dataset dataset;
  eadt::exp::JobPolicy policy = eadt::exp::JobPolicy::kBalanced;
  int max_channels = 4;
  double sla_percent = 90.0;
  eadt::Seconds submit_at = 0.0;
};

struct ReplaySpec {
  const eadt::proto::Environment* env = nullptr;
  eadt::BitsPerSecond reference_rate = 0.0;
  eadt::proto::SessionConfig config;
  eadt::proto::FaultPlan faults;
  eadt::Seconds horizon = 0.0;
  std::vector<ReplayJob> jobs;
};

struct ReplayStats {
  // net: one joint round per tick with running sessions.
  std::uint64_t rounds = 0;
  std::uint64_t flows = 0;
  std::uint64_t groups = 0;
  std::uint64_t waterfill_rounds = 0;  ///< rounds at or above kWaterfillThreshold
  std::uint64_t solver_rounds = 0;     ///< solve_dist filling rounds
  std::uint64_t solver_exact_rounds = 0;
  double allocate_s = 0.0;
  double reference_s = 0.0;
  double solve_dist_s = 0.0;
  // proto: phase totals over all sessions of every tick.
  std::uint64_t session_ticks = 0;
  double prepare_s = 0.0;
  double collect_s = 0.0;
  double apply_s = 0.0;
  double compute_s = 0.0;
  double commit_s = 0.0;
  eadt::sim::SimCounters sim;  ///< the replay's own Simulation
};

/// Drive every job of `spec` to completion (or the horizon). Throws
/// std::runtime_error when an arbiter round disagrees with the reference.
[[nodiscard]] ReplayStats replay_rounds(const ReplaySpec& spec, Tracer* tracer);

/// The net.*, proto.* (phase costs and session-ticks) and sim.* per-layer
/// metrics of one replay.
void put_replay_metrics(const ReplayStats& st, std::map<std::string, double>& m);

}  // namespace perfbench
