// Network device power models (Section 4, Figure 8, Table 1).
//
// Three utilization->power shapes for switches/routers:
//   * non-linear  : dynamic power ~ sqrt(traffic rate) (Mahadevan et al.) —
//                   faster transfers *save* network energy,
//   * linear      : dynamic power ~ rate — network energy is rate-invariant,
//   * state-based : power steps at discrete rate thresholds — behaves like
//                   linear on aggregate.
// Plus the Vishwanath et al. per-packet model (Eq. 5) with the Table 1
// coefficients, used for the Figure 10 end-system vs. network decomposition.
#pragma once

#include <memory>
#include <vector>

#include "net/topology.hpp"
#include "util/units.hpp"

namespace eadt::power {

/// Utilization->power curve for one device. `traffic_fraction` in [0, 1].
class DevicePowerModel {
 public:
  virtual ~DevicePowerModel() = default;
  /// Total instantaneous power at the given port utilization.
  [[nodiscard]] virtual Watts power(double traffic_fraction) const = 0;
  [[nodiscard]] Watts idle() const { return power(0.0); }
  /// Dynamic (load-dependent) part only.
  [[nodiscard]] Watts dynamic_power(double traffic_fraction) const {
    return power(traffic_fraction) - idle();
  }
};

class LinearDevicePower final : public DevicePowerModel {
 public:
  LinearDevicePower(Watts idle, Watts max_dynamic) : idle_(idle), max_dyn_(max_dynamic) {}
  [[nodiscard]] Watts power(double x) const override;

 private:
  Watts idle_, max_dyn_;
};

/// Sub-linear: dynamic ~ sqrt(x). Rate grows faster than power, so pushing
/// data faster reduces the energy per byte at the device.
class NonLinearDevicePower final : public DevicePowerModel {
 public:
  NonLinearDevicePower(Watts idle, Watts max_dynamic) : idle_(idle), max_dyn_(max_dynamic) {}
  [[nodiscard]] Watts power(double x) const override;

 private:
  Watts idle_, max_dyn_;
};

/// Discrete power states keyed on rate thresholds (e.g. DVS-style links).
class StateBasedDevicePower final : public DevicePowerModel {
 public:
  struct State {
    double threshold;  ///< active when traffic_fraction >= threshold
    Watts dynamic;
  };
  StateBasedDevicePower(Watts idle, std::vector<State> states);
  [[nodiscard]] Watts power(double x) const override;

 private:
  Watts idle_;
  std::vector<State> states_;  // sorted by threshold ascending
};

/// Energy E_T = P_i*T + P_d*T_d of a device over a transfer of `bytes` at
/// rate `rate` on a link of `capacity`, under a given curve (paper Eq. 4).
[[nodiscard]] Joules device_transfer_energy(const DevicePowerModel& model, Bytes bytes,
                                            BitsPerSecond rate, BitsPerSecond capacity,
                                            bool include_idle = false);

/// Table 1: per-packet coefficients for load-dependent device energy.
/// P_p is per-packet processing energy (nJ/packet); P_s-f is store-and-forward
/// energy per byte (pJ/byte), so larger packets cost more to buffer.
struct PerPacketCoefficients {
  double pp_nj = 0.0;
  double psf_pj_per_byte = 0.0;
};

[[nodiscard]] PerPacketCoefficients per_packet_coefficients(net::DeviceKind kind);

/// Load-dependent energy of one packet of `packet_bytes` through `kind`.
[[nodiscard]] Joules per_packet_energy(net::DeviceKind kind, Bytes packet_bytes);

/// Load-dependent energy of one `mtu`-byte packet through every device of
/// `route` (Eq. 5's per-packet term summed over the chain, in route order).
/// A function of the route and MTU only, so a transfer over a fixed route
/// can compute it once.
[[nodiscard]] Joules route_packet_energy(const net::Route& route, Bytes mtu);

/// Load-dependent network energy of pushing `bytes` across `route` with the
/// given MTU (Eq. 5 summed over the device chain; idle power excluded, as in
/// the paper's Figure 10 which considers only the load-dependent part):
/// the packet count times route_packet_energy().
[[nodiscard]] Joules route_transfer_energy(const net::Route& route, Bytes bytes, Bytes mtu);

/// Same, broken down by device kind (one entry per kind present, summed over
/// all devices of that kind on the route).
struct DeviceKindEnergy {
  net::DeviceKind kind;
  Joules joules = 0.0;
};
[[nodiscard]] std::vector<DeviceKindEnergy> route_transfer_energy_by_kind(
    const net::Route& route, Bytes bytes, Bytes mtu);

}  // namespace eadt::power
