// Deterministic fault injection for the transfer engine.
//
// Real DTN-to-DTN transfers on XSEDE/FutureGrid-class links are not
// failure-free: data channels stall and die, whole DTN servers drop out for
// maintenance or crash, paths brown out under cross-traffic, and end-to-end
// checksums occasionally reject a landed file. A FaultPlan describes such a
// failure workload — scheduled events plus seeded-stochastic ones — and the
// TransferSession that runs it schedules those events on its
// sim::Simulation's queue (TransferSession::arm_faults).
//
// Determinism: every stochastic element (Poisson drop arrivals, victim
// selection, backoff jitter, checksum verdicts) draws from named forks of a
// single Rng seeded from FaultPlan::seed, so a (environment, dataset, plan,
// fault plan) tuple is bit-reproducible. A default-constructed FaultPlan is
// inert: the engine takes exactly the code paths it took before this
// subsystem existed and produces byte-identical results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace eadt::proto {

/// Kill one open data channel at an absolute simulated time. The channel's
/// in-flight file is requeued (see RetryPolicy) and the channel re-opens
/// after backoff.
struct ChannelDropEvent {
  Seconds time = 0.0;
  /// Index into the list of live channels at fire time (taken modulo the
  /// live count); -1 picks a seeded-uniform victim.
  int channel = -1;
};

/// Take one DTN server out of service for a window. Channels placed on it
/// are re-placed onto surviving servers of the same side; if none survive
/// they strand until a server recovers.
struct ServerOutageEvent {
  bool source_side = true;
  std::size_t server = 0;
  Seconds start = 0.0;
  Seconds duration = 0.0;
};

/// Path brownout: the shared link's capacity drops to `capacity_factor` of
/// nominal for the window (windows on the same path should not overlap).
struct PathBrownoutEvent {
  Seconds start = 0.0;
  Seconds duration = 0.0;
  double capacity_factor = 0.5;
  /// Which PathSet entry the brownout hits: -1 (default) hits whatever path
  /// the session runs on — the single-path behaviour — while >= 0 targets one
  /// alternate route, so a failover scenario can flap the primary and leave
  /// the backup clean. Sessions filter with FaultPlan::for_path.
  int path = -1;
};

/// Seeded-stochastic background failures.
struct StochasticFaults {
  /// Poisson arrival rate of channel kills, in drops per simulated second
  /// across the whole session (victims are picked seeded-uniform).
  double channel_drop_rate = 0.0;
  /// Probability that a fully landed file fails its end-to-end checksum and
  /// must be retransmitted from scratch.
  double checksum_failure_prob = 0.0;
};

/// How the engine recovers a failed channel.
struct RetryPolicy {
  /// GridFTP restart markers: a requeued file resumes from its last byte
  /// offset. false = legacy whole-file retransmission (the already-moved
  /// prefix is wasted and re-sent).
  bool restart_markers = true;
  Seconds backoff_initial = 1.0;      ///< first reconnect delay
  double backoff_multiplier = 2.0;    ///< exponential growth per consecutive failure
  Seconds backoff_max = 30.0;         ///< backoff ceiling
  double backoff_jitter = 0.1;        ///< +/- fraction of seeded jitter per delay
  /// Consecutive failures (without an intervening completed file) a channel
  /// slot may absorb before it is quarantined — closed for good, shrinking
  /// the effective concurrency by one (never below one).
  int channel_retry_budget = 6;
};

struct FaultPlan {
  std::vector<ChannelDropEvent> channel_drops;
  std::vector<ServerOutageEvent> outages;
  std::vector<PathBrownoutEvent> brownouts;
  StochasticFaults stochastic;
  RetryPolicy retry;
  std::uint64_t seed = 1;

  /// An inactive plan injects nothing and leaves the engine byte-identical
  /// to a run without a fault plan at all.
  [[nodiscard]] bool active() const noexcept {
    return !channel_drops.empty() || !outages.empty() || !brownouts.empty() ||
           stochastic.channel_drop_rate > 0.0 ||
           stochastic.checksum_failure_prob > 0.0;
  }

  /// Sanity-check the plan: rejects negative rates/durations/times,
  /// out-of-range probabilities and capacity factors, overlapping brownout
  /// windows, and degenerate retry parameters (non-positive backoff
  /// multiplier, jitter outside [0,1], negative retry budget). Returns a
  /// human-readable reason, or nullopt when the plan is usable.
  /// TransferSession::run() calls this before the first tick and refuses to
  /// start on a malformed plan (RunResult::error carries the reason).
  [[nodiscard]] std::optional<std::string> validate() const;

  /// The plan as seen by a session running on PathSet entry `path_id`:
  /// brownouts targeting a *different* path are dropped, everything else is
  /// kept verbatim. With no targeted brownouts the result equals the input,
  /// so single-path callers can pass their plan through unconditionally.
  [[nodiscard]] FaultPlan for_path(int path_id) const;
};

/// The n-th consecutive failure's reconnect delay: exponential growth from
/// `backoff_initial`, capped at `backoff_max`, with seeded +/- jitter drawn
/// from `rng`. Exposed as a free function so the schedule is unit-testable
/// apart from a full session run.
[[nodiscard]] Seconds retry_backoff_delay(const RetryPolicy& retry, int failures,
                                          Rng& rng);

/// Robustness accounting accumulated over a run (RunResult::faults).
struct FaultStats {
  std::int64_t retries = 0;             ///< files resumed or retransmitted after a fault
  std::int64_t channel_drops = 0;       ///< channel-kill events absorbed
  std::int64_t checksum_failures = 0;   ///< landed files rejected by verification
  std::int64_t server_outages = 0;      ///< outage windows that hit the run
  std::int64_t quarantined_channels = 0;
  Bytes wasted_bytes = 0;     ///< bytes moved more than once (lost prefixes, re-sent files)
  Joules wasted_joules = 0.0; ///< end-system energy attributed to wasted bytes
  Seconds channel_downtime = 0.0;  ///< channel-slot seconds spent in backoff / stranded
  Seconds server_downtime = 0.0;   ///< server seconds out of service during the run
};

}  // namespace eadt::proto
