// Per-path health scoring for the resilience layer (phi-accrual style).
//
// Classic phi-accrual failure detection (Hayashibara et al.) turns a stream
// of heartbeat observations into a continuous suspicion level phi, so policy
// can pick its own threshold instead of a binary alive/dead verdict. Our
// "heartbeats" are transfer observations: each tick (or sample window) a path
// reports the fraction of its expected goodput it actually delivered, and
// fault events (channel drops, outages, brownout onsets) land as discrete
// demerits. The monitor folds both into one phi per path:
//
//   phi(path) = -log10(EWMA of goodput fraction) + decaying fault demerits
//
// A path delivering its expected goodput sits at phi ~ 0; one delivering 10%
// scores ~1; a hard outage pushes phi past any sane fail threshold within a
// few windows. Fault demerits decay with a configurable half-life of
// *simulated* time, so a path that flapped a minute ago looks better than one
// flapping now.
//
// Determinism: the monitor is pure arithmetic over the observation sequence —
// no wall clock, no randomness, no shared state. Feed it the same
// observations in the same order and phi is bit-identical, which is what lets
// failover decisions live inside byte-reproducible benches. One monitor
// belongs to one Scheduler::run and is used single-threaded.
#pragma once

#include <vector>

#include "util/units.hpp"

namespace eadt::exp {

struct HealthMonitorConfig {
  /// phi at or above which a path counts as suspect. Nothing reads it:
  /// placement moves every dispatch to the lowest-phi path with headroom
  /// whatever the threshold, so suspicion is a reading of phi, not a rule.
  /// Kept so configurations that set it still compile.
  double suspect_phi = 1.0;
  /// phi at or above which a path is treated as failed for placement.
  double fail_phi = 3.0;
  /// EWMA weight of the newest goodput window (higher = faster reaction).
  double ewma_alpha = 0.2;
  /// Goodput fractions are clamped up to this floor before the log, bounding
  /// phi's goodput term at -log10(floor) even through a total outage.
  double min_fraction = 1e-4;
  /// phi added per unit of fault weight.
  double fault_weight = 0.5;
  /// Simulated-time half-life of accumulated fault demerits.
  Seconds fault_halflife = 30.0;
};

/// Suspicion scores for a fixed set of paths (index-aligned with the job's
/// net::PathSet). See file comment for the model.
class HealthMonitor {
 public:
  HealthMonitor(int n_paths, HealthMonitorConfig cfg = {});

  /// One goodput window on `path` ending at simulated time `at`:
  /// `fraction` = achieved / expected goodput, clamped to [0, 1].
  void observe_goodput(int path, Seconds at, double fraction);

  /// A discrete fault on `path` at simulated time `at` (weight 1.0 = one
  /// channel drop; heavier events pass more).
  void observe_fault(int path, Seconds at, double weight = 1.0);

  [[nodiscard]] int paths() const noexcept { return static_cast<int>(state_.size()); }
  [[nodiscard]] double phi(int path) const;
  [[nodiscard]] bool failed(int path) const { return phi(path) >= cfg_.fail_phi; }

  /// Lowest-phi path, excluding `exclude` (pass -1 to exclude none); ties go
  /// to the lowest index so the choice is deterministic. Returns -1 when no
  /// candidate exists.
  [[nodiscard]] int healthiest(int exclude = -1) const;

  [[nodiscard]] const HealthMonitorConfig& config() const noexcept { return cfg_; }

 private:
  struct PathState {
    double ewma_fraction = 1.0;  ///< optimistic start: a path is healthy until observed
    double fault_phi = 0.0;      ///< decaying demerit accumulator
    Seconds fault_at = 0.0;      ///< sim time fault_phi was last brought current
  };

  [[nodiscard]] double fault_phi_at(const PathState& s, Seconds at) const;

  HealthMonitorConfig cfg_;
  std::vector<PathState> state_;
  Seconds now_ = 0.0;  ///< latest observation time, for phi() queries
};

}  // namespace eadt::exp
