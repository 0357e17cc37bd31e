// Units and conversions used across the EADT codebase.
//
// Conventions (documented once, used everywhere):
//   * data sizes   : Bytes (std::uint64_t), binary multiples (1 KB = 1024 B)
//   * rates        : bits per second (double)  -- networking convention
//   * time         : seconds (double), simulated time only
//   * power/energy : watts / joules (double)
#pragma once

#include <cstdint>

namespace eadt {

/// Exact byte count.
using Bytes = std::uint64_t;

/// Simulated time in seconds. The simulator never reads the wall clock.
using Seconds = double;

/// Data rate in bits per second.
using BitsPerSecond = double;

/// Instantaneous electrical power in watts.
using Watts = double;

/// Accumulated energy in joules.
using Joules = double;

inline constexpr Bytes kKB = 1024ULL;
inline constexpr Bytes kMB = 1024ULL * kKB;
inline constexpr Bytes kGB = 1024ULL * kMB;

/// Megabits/s -> bits/s.
constexpr BitsPerSecond mbps(double v) { return v * 1e6; }
/// Gigabits/s -> bits/s.
constexpr BitsPerSecond gbps(double v) { return v * 1e9; }

/// bits/s -> Megabits/s (for reporting).
constexpr double to_mbps(BitsPerSecond v) { return v / 1e6; }
/// bits/s -> Gigabits/s (for reporting).
constexpr double to_gbps(BitsPerSecond v) { return v / 1e9; }

/// Bytes -> bits (watch for overflow only past ~2 EB, far beyond our datasets).
constexpr double to_bits(Bytes b) { return static_cast<double>(b) * 8.0; }

/// Bytes -> fractional megabytes (reporting).
constexpr double to_mb(Bytes b) { return static_cast<double>(b) / static_cast<double>(kMB); }
/// Bytes -> fractional gigabytes (reporting).
constexpr double to_gb(Bytes b) { return static_cast<double>(b) / static_cast<double>(kGB); }

/// Time to move `size` at `rate`; returns +inf for rate <= 0.
constexpr Seconds transfer_time(Bytes size, BitsPerSecond rate) {
  return rate > 0.0 ? to_bits(size) / rate : 1e300;
}

/// Bandwidth-delay product in bytes (the paper's BDP = BW * RTT).
constexpr Bytes bdp_bytes(BitsPerSecond bandwidth, Seconds rtt) {
  const double bits = bandwidth * rtt;
  return bits <= 0.0 ? 0 : static_cast<Bytes>(bits / 8.0);
}

}  // namespace eadt
