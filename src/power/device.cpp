#include "power/device.hpp"

#include <algorithm>
#include <cmath>

namespace eadt::power {

Watts LinearDevicePower::power(double x) const {
  return idle_ + max_dyn_ * std::clamp(x, 0.0, 1.0);
}

Watts NonLinearDevicePower::power(double x) const {
  return idle_ + max_dyn_ * std::sqrt(std::clamp(x, 0.0, 1.0));
}

StateBasedDevicePower::StateBasedDevicePower(Watts idle, std::vector<State> states)
    : idle_(idle), states_(std::move(states)) {
  std::sort(states_.begin(), states_.end(),
            [](const State& a, const State& b) { return a.threshold < b.threshold; });
}

Watts StateBasedDevicePower::power(double x) const {
  const double xc = std::clamp(x, 0.0, 1.0);
  Watts dyn = 0.0;
  for (const auto& s : states_) {
    if (xc >= s.threshold && s.threshold > 0.0) dyn = s.dynamic;
  }
  return idle_ + dyn;
}

Joules device_transfer_energy(const DevicePowerModel& model, Bytes bytes,
                              BitsPerSecond rate, BitsPerSecond capacity,
                              bool include_idle) {
  if (bytes == 0 || rate <= 0.0 || capacity <= 0.0) return 0.0;
  const Seconds duration = to_bits(bytes) / rate;
  const double fraction = std::clamp(rate / capacity, 0.0, 1.0);
  const Watts p = include_idle ? model.power(fraction) : model.dynamic_power(fraction);
  return p * duration;
}

PerPacketCoefficients per_packet_coefficients(net::DeviceKind kind) {
  // Table 1 of the paper (Vishwanath et al. regression coefficients).
  switch (kind) {
    case net::DeviceKind::kEnterpriseSwitch: return {40.0, 0.42};
    case net::DeviceKind::kEdgeSwitch: return {1571.0, 14.1};
    case net::DeviceKind::kMetroRouter: return {1375.0, 21.6};
    case net::DeviceKind::kEdgeRouter: return {1707.0, 15.3};
  }
  return {};
}

Joules per_packet_energy(net::DeviceKind kind, Bytes packet_bytes) {
  const auto c = per_packet_coefficients(kind);
  return c.pp_nj * 1e-9 +
         c.psf_pj_per_byte * 1e-12 * static_cast<double>(packet_bytes);
}

Joules route_packet_energy(const net::Route& route, Bytes mtu) {
  Joules per_packet_chain = 0.0;
  for (const auto& dev : route.devices()) {
    per_packet_chain += per_packet_energy(dev.kind, mtu);
  }
  return per_packet_chain;
}

Joules route_transfer_energy(const net::Route& route, Bytes bytes, Bytes mtu) {
  if (bytes == 0 || mtu == 0) return 0.0;
  const double packets = std::ceil(static_cast<double>(bytes) / static_cast<double>(mtu));
  return packets * route_packet_energy(route, mtu);
}

std::vector<DeviceKindEnergy> route_transfer_energy_by_kind(const net::Route& route,
                                                            Bytes bytes, Bytes mtu) {
  std::vector<DeviceKindEnergy> out;
  if (bytes == 0 || mtu == 0) return out;
  const double packets = std::ceil(static_cast<double>(bytes) / static_cast<double>(mtu));
  for (const auto& dev : route.devices()) {
    const Joules e = packets * per_packet_energy(dev.kind, mtu);
    auto it = std::find_if(out.begin(), out.end(),
                           [&](const DeviceKindEnergy& d) { return d.kind == dev.kind; });
    if (it == out.end()) {
      out.push_back({dev.kind, e});
    } else {
      it->joules += e;
    }
  }
  return out;
}

}  // namespace eadt::power
