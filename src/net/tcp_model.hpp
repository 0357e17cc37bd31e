// Steady-state TCP stream model used by the fluid-flow simulator.
//
// The paper's tuning formulas reason about exactly these quantities:
//   * per-stream window cap  = tcp_buffer / RTT  (why parallelism helps when
//     buffer < BDP),
//   * per-file control-channel gaps amortised by pipelining (why pipelining
//     rescues small-file transfers),
//   * slow-start ramp for cold connections (why unpipelined small files over
//     long RTT collapse),
//   * congestion-loss degradation when the offered load oversubscribes the
//     bottleneck (why "too many streams" hurt).
#pragma once

#include <algorithm>
#include <cmath>

#include "util/units.hpp"

namespace eadt::net {

/// End-to-end path characteristics (the bottleneck view of Figure 1).
struct PathSpec {
  BitsPerSecond bandwidth = 0.0;  ///< bottleneck capacity
  Seconds rtt = 0.0;              ///< round-trip time
  Bytes tcp_buffer = 0;           ///< max TCP buffer (window) per stream
  Bytes mtu = 1500;               ///< for packet-count-based device energy
  /// Standing cross-traffic on the bottleneck (other tenants); the transfer
  /// competes for what is left.
  BitsPerSecond background_traffic = 0.0;

  /// Bandwidth-delay product in bytes (of the full link, as the tuner sees it).
  [[nodiscard]] Bytes bdp() const { return bdp_bytes(bandwidth, rtt); }
  /// Capacity actually available to this transfer.
  [[nodiscard]] BitsPerSecond available_bandwidth() const {
    return bandwidth > background_traffic ? bandwidth - background_traffic : 0.0;
  }
};

/// Congestion behaviour knobs for a path.
struct CongestionSpec {
  /// Goodput degradation strength once aggregate demand exceeds capacity
  /// (retransmissions, queue overflow). 0 disables.
  double loss_beta = 0.25;
  /// Stream count past which per-stream bookkeeping starts to bite.
  int stream_knee = 48;
  /// Strength of the per-stream overhead past the knee.
  double stream_beta = 0.05;
};

/// Maximum steady-state rate of one TCP stream on `path`:
/// window-limited (buffer/RTT) and never above link capacity.
[[nodiscard]] inline BitsPerSecond stream_window_cap(const PathSpec& path) {
  if (path.rtt <= 0.0) return path.bandwidth;
  const BitsPerSecond window_limit = to_bits(path.tcp_buffer) / path.rtt;
  return std::min(window_limit, path.bandwidth);
}

/// Initial congestion window a cold connection ramps from.
inline constexpr Bytes kInitialWindow = 64 * kKB;

/// Extra latency a *cold* connection pays ramping its congestion window for a
/// file of `file_size` (doublings from the initial window, one RTT each).
/// Warm (pipelined, back-to-back) channels skip this — that is precisely the
/// "keeps the transfer channel active" benefit the paper ascribes to
/// pipelining. `warm_fraction` models data-channel caching: GridFTP reuses
/// data connections, so even "cold" files keep part of the window. Every
/// file of at least max(BDP, kInitialWindow) ramps to that same target.
[[nodiscard]] inline Seconds slow_start_penalty(const PathSpec& path, Bytes file_size,
                                                double warm_fraction = 0.5) {
  if (path.rtt <= 0.0 || file_size <= kInitialWindow) return 0.0;
  const Bytes target = std::min(file_size, std::max<Bytes>(path.bdp(), kInitialWindow));
  const double doublings = std::log2(static_cast<double>(target) /
                                     static_cast<double>(kInitialWindow));
  return path.rtt * std::max(0.0, doublings) * (1.0 - std::clamp(warm_fraction, 0.0, 1.0));
}

/// Control-channel gap per file on a channel running pipelining depth `pp`:
/// with no pipelining each file waits a full RTT for its command/ack exchange;
/// depth pp keeps pp commands in flight, dividing the stall.
[[nodiscard]] inline Seconds control_gap_per_file(const PathSpec& path, int pipelining) {
  const int pp = std::max(1, pipelining);
  return path.rtt / static_cast<double>(pp);
}

/// Multiplicative goodput efficiency in (0, 1] given the aggregate demand the
/// streams would offer and how many streams are open.
[[nodiscard]] inline double congestion_efficiency(const CongestionSpec& c,
                                                  BitsPerSecond aggregate_demand,
                                                  BitsPerSecond capacity, int streams) {
  double eff = 1.0;
  if (capacity > 0.0 && aggregate_demand > capacity && c.loss_beta > 0.0) {
    const double over = (aggregate_demand - capacity) / capacity;
    eff /= 1.0 + c.loss_beta * over * over / (1.0 + over);  // saturating quadratic
  }
  if (streams > c.stream_knee && c.stream_beta > 0.0 && c.stream_knee > 0) {
    const double extra = static_cast<double>(streams - c.stream_knee) /
                         static_cast<double>(c.stream_knee);
    eff /= 1.0 + c.stream_beta * extra;
  }
  return eff;
}

}  // namespace eadt::net
