// Live telemetry: deterministic sim-time sampler, tick flight recorder, and
// wall-clock tick-pipeline profiler.
//
// Three instruments with one hard boundary between them (MODEL.md §17):
//
//   * TelemetryHub samples *simulation* state on a sim-time stride from the
//     scheduler's serial commit section. Everything it records is a pure
//     function of deterministic scheduler state, so its `eadt-telemetry-v1`
//     export is byte-identical at any --jobs N. Storage is a bounded ring
//     whose entries are fully pre-sized at construction: recording a sample
//     copies scalars and assigns into same-sized vectors, so steady-state
//     ticks stay allocation-free with the sampler attached.
//   * TickFlightRecorder keeps the last K ticks of compact scheduler state
//     and freezes that window into a dump when something abnormal happens —
//     a watchdog abort, a site power cap measured above bound, or an
//     invariant trip. Dump storage is reserved up front and the number of
//     retained dumps is bounded; further triggers are counted, not stored.
//   * TickProfiler is the *wall-clock* side: per-phase latency histograms
//     (prepare/arbiter/apply/commit) and per-worker occupancy for the tick
//     pool. Its output lives in the MetricsRegistry next to other wall-clock
//     metrics and is never mixed into deterministic exports.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace eadt::obs {

/// Number of SLA classes the sampler tracks (kInteractive/kStandard/kBulk).
inline constexpr std::size_t kTelemetryClasses = 3;

/// One sim-time sample of fleet state. Counters are cumulative totals as of
/// the sample instant; gauges are instantaneous. Per-site vectors are indexed
/// by site id and sized once by the hub.
struct TelemetrySample {
  double t = 0.0;  ///< sim time (s)

  // Fleet-wide instantaneous state.
  int running = 0;
  int queued = 0;
  int deferred = 0;
  int channels = 0;  ///< open data channels summed over running tenants

  // Fleet-wide cumulative event counters.
  std::uint64_t shed = 0;
  std::uint64_t preempted = 0;
  std::uint64_t migrated = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;

  // Fleet-wide power vs. cap (W). Headroom is cap - power, clamped at 0 by
  // the exporter rather than stored.
  double power_w = 0.0;
  double cap_w = 0.0;

  // Per-SLA-class: currently running tenants and mean deadline burn rate
  // (elapsed attempt time / attempt deadline, over running tenants that have
  // a deadline; 0 when none do).
  std::array<int, kTelemetryClasses> class_running{};
  std::array<double, kTelemetryClasses> class_burn{};

  // Per-site power vs. configured cap and fair-share priority phi.
  std::vector<double> site_power_w;
  std::vector<double> site_cap_w;
  std::vector<double> site_phi;
};

/// Deterministic sim-time series sampler. The owner (exp::Scheduler) fills
/// scratch() during its serial commit phase and calls record(); the hub keeps
/// the last `capacity` samples. stride <= 0 disables the hub entirely —
/// due() is then always false and nothing is ever touched on the tick path.
class TelemetryHub {
 public:
  /// Pre-sizes the ring: `capacity` samples, each with `site_count`-sized
  /// per-site vectors. All allocation happens here.
  TelemetryHub(double stride_s, std::size_t capacity, std::size_t site_count);

  [[nodiscard]] bool enabled() const noexcept { return stride_s_ > 0.0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  [[nodiscard]] std::size_t site_count() const noexcept { return site_count_; }

  /// True when sim time `now` has reached the next sample point.
  [[nodiscard]] bool due(double now) const noexcept {
    return enabled() && now + 1e-9 >= next_t_;
  }

  /// The reusable fill target. Its per-site vectors are pre-sized to
  /// site_count(); callers index-assign, never push_back.
  [[nodiscard]] TelemetrySample& scratch() noexcept { return scratch_; }

  /// Commit scratch() as the sample for sim time `now` and advance the
  /// stride clock. Allocation-free: assigns into a pre-sized ring entry.
  void record(double now);

  /// Samples currently retained (<= capacity) and total ever recorded.
  [[nodiscard]] std::size_t size() const noexcept;
  [[nodiscard]] std::uint64_t samples_seen() const noexcept { return seen_; }

  /// i-th retained sample, oldest first.
  [[nodiscard]] const TelemetrySample& sample(std::size_t i) const;

  /// Render the `eadt-telemetry-v1` object: schema, stride, sample count,
  /// drop count, and the retained samples oldest-first. Deterministic —
  /// byte-identical for equal sampled state.
  void write_json(std::ostream& os, int base_indent) const;

  /// Convenience: the full object as a string (used for bitwise compares).
  [[nodiscard]] std::string to_json() const;

 private:
  double stride_s_;
  double next_t_;
  std::size_t site_count_;
  std::vector<TelemetrySample> ring_;
  std::size_t head_ = 0;  ///< next write position
  std::uint64_t seen_ = 0;
  TelemetrySample scratch_;
};

/// Compact per-tick scheduler state kept by the flight recorder. Plain
/// scalars only — entries are copied wholesale into dumps.
struct FlightTick {
  double t = 0.0;
  int running = 0;
  int queued = 0;
  int deferred = 0;
  double power_w = 0.0;
  double cap_w = 0.0;
  std::uint64_t watchdog_aborts = 0;
  std::uint64_t cap_violations = 0;
};

/// Last-K-ticks ring frozen into bounded dumps on abnormal events. All
/// storage (ring + max_dumps windows) is reserved at construction, so both
/// note() on the tick path and trigger() are allocation-free apart from the
/// reason string of a dump (triggers are by definition off the steady-state
/// path).
class TickFlightRecorder {
 public:
  explicit TickFlightRecorder(std::size_t ring_ticks = 64, std::size_t max_dumps = 4);

  /// Record one tick's state into the ring (overwrites the oldest).
  void note(const FlightTick& tick) noexcept;

  /// Freeze the current window as a dump labelled `reason` at sim time `t`.
  /// Beyond max_dumps the trigger is only counted (see suppressed()).
  void trigger(std::string_view reason, double t);

  struct Dump {
    std::string reason;
    double t = 0.0;
    std::vector<FlightTick> ticks;  ///< oldest first
  };

  [[nodiscard]] const std::vector<Dump>& dumps() const noexcept { return dumps_; }
  [[nodiscard]] std::uint64_t suppressed() const noexcept { return suppressed_; }
  [[nodiscard]] std::uint64_t triggers() const noexcept {
    return static_cast<std::uint64_t>(dumps_.size()) + suppressed_;
  }

  /// Render the `eadt-flightrec-v1` object (schema, ring size, dumps,
  /// suppressed count). Deterministic for equal recorded state.
  void write_json(std::ostream& os, int base_indent) const;

 private:
  std::vector<FlightTick> ring_;
  std::size_t head_ = 0;
  std::size_t filled_ = 0;
  std::size_t max_dumps_;
  std::vector<Dump> dumps_;
  std::uint64_t suppressed_ = 0;
};

/// Wall-clock tick-pipeline profiler. Resolves `tickpipe.*` histograms and
/// gauges from a MetricsRegistry once at construction; observe() is then a
/// lock-free histogram update. Phase durations are microseconds.
class TickProfiler {
 public:
  enum Phase : std::size_t { kPrepare = 0, kArbiter, kApply, kCommit, kPhaseCount };

  explicit TickProfiler(MetricsRegistry& registry);

  /// Record one phase's wall-clock duration in microseconds.
  void observe(Phase phase, double us) noexcept {
    phase_[static_cast<std::size_t>(phase)]->observe(us);
  }

  /// Record how many tick-pool work items worker `worker` executed over the
  /// run (single-writer: called once from the scheduler after the pool
  /// drains). Workers beyond the pre-registered limit are ignored.
  void record_worker_ops(std::size_t worker, std::uint64_t ops) noexcept;

  static constexpr std::size_t kMaxWorkers = 16;

 private:
  std::array<Histogram*, kPhaseCount> phase_{};
  std::array<Gauge*, kMaxWorkers> worker_ops_{};
};

}  // namespace eadt::obs
