// Experiment driver: runs one named algorithm over a testbed and dataset and
// returns the numbers the paper's figures plot. Used by every bench binary
// and by the integration tests that assert the paper's qualitative claims.
#pragma once

#include <string>
#include <vector>

#include "baselines/baselines.hpp"
#include "core/algorithms.hpp"
#include "proto/session.hpp"
#include "testbeds/testbeds.hpp"

namespace eadt::exp {

enum class Algorithm { kGuc, kGo, kSc, kMinE, kProMc, kHtee, kBf };

[[nodiscard]] const char* to_string(Algorithm a) noexcept;

/// The six concurrency-sweep algorithms in the paper's plotting order.
[[nodiscard]] std::vector<Algorithm> figure_algorithms();

struct RunOutcome {
  Algorithm algorithm = Algorithm::kGuc;
  int concurrency = 0;         ///< the x-axis value (user maxChannel)
  proto::RunResult result;
  int chosen_concurrency = 0;  ///< HTEE's selected level (== concurrency otherwise)

  [[nodiscard]] double throughput_mbps() const { return to_mbps(result.avg_throughput()); }
  [[nodiscard]] Joules energy() const { return result.end_system_energy; }
  [[nodiscard]] double ratio() const { return result.throughput_per_joule(); }
};

/// Run `algorithm` at user concurrency `max_channels`.
/// GUC and GO ignore `max_channels` (untunable), as in the paper.
/// `faults` injects a failure workload; the default plan is inert.
[[nodiscard]] RunOutcome run_algorithm(Algorithm algorithm,
                                       const testbeds::Testbed& testbed,
                                       const proto::Dataset& dataset, int max_channels,
                                       proto::SessionConfig config = {},
                                       proto::FaultPlan faults = {});

struct SlaOutcome {
  double target_percent = 0.0;         ///< requested % of max throughput
  BitsPerSecond target_throughput = 0.0;
  proto::RunResult result;
  int final_concurrency = 0;
  bool rearranged = false;

  [[nodiscard]] double achieved_mbps() const { return to_mbps(result.avg_throughput()); }
  [[nodiscard]] Joules energy() const { return result.end_system_energy; }
  /// |achieved - target| / target, in percent (the paper's deviation ratio;
  /// both shortfall and overshoot count).
  [[nodiscard]] double deviation_percent() const;
  /// Signed shortfall: positive = under target.
  [[nodiscard]] double shortfall_percent() const;
};

/// Run SLAEE for a target expressed as a percent of `max_throughput`
/// (the ProMC maximum, per Section 3).
[[nodiscard]] SlaOutcome run_slaee(const testbeds::Testbed& testbed,
                                   const proto::Dataset& dataset, double target_percent,
                                   BitsPerSecond max_throughput, int max_channels,
                                   proto::SessionConfig config = {},
                                   proto::FaultPlan faults = {});

/// The concurrency levels the figures sweep.
[[nodiscard]] std::vector<int> figure_concurrency_levels();  // {1,2,4,6,8,10,12}
[[nodiscard]] std::vector<int> bf_concurrency_levels();      // {1..20}
[[nodiscard]] std::vector<double> sla_target_percents();     // {95,90,80,70,50}

}  // namespace eadt::exp
