// The paper's three energy-aware transfer algorithms.
//
//   MinE  (Algorithm 1) — static plan: BDP partitioning, per-chunk tuned
//          parameters, channel budget walked Small -> Large with the Large
//          chunk pinned to (at most) one channel; freed channels help only
//          the non-Large chunks.
//   HTEE  (Algorithm 2) — HTEE weights for channel allocation plus an online
//          concurrency search (1, 3, 5, ... <= maxChannel, one 5-second probe
//          each); the level with the best throughput/energy ratio runs the
//          remainder of the transfer.
//   SLAEE (Algorithm 3) — starts at concurrency 1, jump-estimates the level
//          needed to hit the SLA target throughput, then increments; at the
//          channel cap it "re-arranges" (releases the Large chunk's
//          single-channel restriction).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/tuner.hpp"
#include "proto/environment.hpp"
#include "proto/plan.hpp"
#include "proto/session.hpp"

namespace eadt::obs {
class DecisionLog;
}  // namespace eadt::obs

namespace eadt::core {

/// Chunk layout shared by every BDP-aware algorithm: partition by BDP, merge
/// undersized chunks, compute tuned pipelining/parallelism per chunk.
/// A non-null `log` records one kPlanTune decision per chunk explaining the
/// pipelining/parallelism choice (the BDP-vs-file-size rule it came from).
[[nodiscard]] proto::TransferPlan tuned_chunk_plan(const proto::Environment& env,
                                                   const proto::Dataset& dataset,
                                                   obs::DecisionLog* log = nullptr);

/// Algorithm 1. `max_channels` is the paper's maxChannel input. A non-null
/// `log` records the partition and the Small->Large channel walk (MODEL.md
/// §12); planning decisions are stamped at t = 0.
[[nodiscard]] proto::TransferPlan plan_min_energy(const proto::Environment& env,
                                                  const proto::Dataset& dataset,
                                                  int max_channels,
                                                  obs::DecisionLog* log = nullptr);

/// The plan HTEE, SLAEE and ProMC share: tuned chunks, `channels` allocated by
/// chunk weight (`ensure_total` spends the whole budget), packed placement,
/// steal-all, chunks concurrent. A non-null `log` records the tuning and the
/// partition, the latter under `actor`.
[[nodiscard]] proto::TransferPlan weighted_plan(const proto::Environment& env,
                                                const proto::Dataset& dataset,
                                                int channels, bool ensure_total,
                                                const char* actor,
                                                obs::DecisionLog* log = nullptr);

/// Algorithm 2 static part: weighted channel allocation at `max_channels`.
[[nodiscard]] proto::TransferPlan plan_htee(const proto::Environment& env,
                                            const proto::Dataset& dataset,
                                            int max_channels,
                                            obs::DecisionLog* log = nullptr);

/// Algorithm 2 dynamic part: the concurrency search.
class HteeController final : public proto::Controller {
 public:
  /// `stride` = 2 reproduces the paper (probe 1, 3, 5, ...): it halves the
  /// search space at the cost of possibly missing an even optimum. 1 probes
  /// every level (the ablation baseline).
  explicit HteeController(int max_channels, int stride = 2)
      : max_channels_(max_channels), stride_(std::max(1, stride)) {}

  std::optional<int> initial_concurrency() override { return 1; }
  void on_sample(proto::TransferSession& session, const proto::SampleStats& stats) override;

  /// The concurrency level the search settled on (meaningful once the search
  /// phase has finished; equals the running level before that).
  [[nodiscard]] int chosen_level() const noexcept { return chosen_level_; }
  [[nodiscard]] bool search_finished() const noexcept { return !searching_; }

  /// Number of probe windows the search will spend (for overhead ablations).
  [[nodiscard]] int probe_count() const noexcept {
    return (max_channels_ - 1) / stride_ + 1;
  }

 private:
  int max_channels_;
  int stride_;
  bool searching_ = true;
  int probe_level_ = 1;
  int chosen_level_ = 1;
  double best_ratio_ = -1.0;
};

/// Algorithm 3 static part: tuned parameters, Small-priority weights, Large
/// chunk restricted to one channel until re-arrangement.
[[nodiscard]] proto::TransferPlan plan_slaee(const proto::Environment& env,
                                             const proto::Dataset& dataset,
                                             int max_channels,
                                             obs::DecisionLog* log = nullptr);

class SlaeeController final : public proto::Controller {
 public:
  /// `target_throughput` = SLALevel * maxThroughput (paper line 6).
  SlaeeController(BitsPerSecond target_throughput, int max_channels)
      : target_(target_throughput), max_channels_(max_channels) {}

  std::optional<int> initial_concurrency() override { return 1; }
  void on_start(proto::TransferSession& session) override;
  void on_sample(proto::TransferSession& session, const proto::SampleStats& stats) override;

  [[nodiscard]] int final_level() const noexcept { return level_; }
  [[nodiscard]] bool rearranged() const noexcept { return rearranged_; }

 private:
  /// Shortfall fraction treated as "met" (within the SLA's own deviation).
  static constexpr double kDeficitTolerance = 0.02;

  BitsPerSecond target_;
  int max_channels_;
  BitsPerSecond smoothed_ = 0.0;
  int level_ = 1;
  bool warmed_up_ = false;
  bool first_adjustment_done_ = false;
  bool rearranged_ = false;
  int consecutive_deficits_ = 0;
};

}  // namespace eadt::core
