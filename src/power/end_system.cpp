#include "power/end_system.hpp"

namespace eadt::power {

Watts fine_grained_power(const PowerCoefficients& c, int active_cores,
                         const host::Utilization& u) {
  if (active_cores <= 0) return 0.0;
  const double c_cpu = cpu_coefficient(active_cores) * c.cpu_scale;
  return c.active_base + c_cpu * u.cpu + c.mem * u.mem + c.disk * u.disk + c.nic * u.nic;
}

}  // namespace eadt::power
