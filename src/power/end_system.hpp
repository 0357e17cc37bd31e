// End-system power models from Section 2.2 of the paper.
//
//   Fine-grained (Eq. 1):  P_t = C_cpu,n*u_cpu + C_mem*u_mem
//                                + C_disk*u_disk + C_nic*u_nic
//   CPU coefficient (Eq. 2): C_cpu,n = 0.011 n^2 - 0.082 n + 0.344
//
// The CPU-only model and its TDP-scaled extension (Eq. 3) are fitted by the
// model-building regression and live on power::CalibrationResult.
//
// Eq. 2 is dimensionless in the paper (regression against their Intel server);
// we keep the polynomial exactly and multiply by a machine-specific scale in
// watts. Its minimum near n = 3.7 is what produces the paper's "energy per
// core decreases until 4 active cores" parabola on 4-core DTNs.
#pragma once

#include "host/server.hpp"
#include "util/units.hpp"

namespace eadt::power {

/// Eq. 2, verbatim.
[[nodiscard]] constexpr double cpu_coefficient(int active_cores) {
  const double n = static_cast<double>(active_cores);
  return 0.011 * n * n - 0.082 * n + 0.344;
}

/// Machine-specific coefficients (watts at utilization 1.0). Derived by the
/// one-time model-building regression (see ModelCalibrator) or configured per
/// testbed.
struct PowerCoefficients {
  Watts cpu_scale = 250.0;  ///< multiplies the Eq. 2 polynomial
  Watts mem = 30.0;
  Watts disk = 25.0;
  Watts nic = 20.0;
  /// Marginal power of a server merely *participating* in a transfer
  /// (kernel, interrupts, exiting deep idle states). Charged while >= 1
  /// channel is resident; this is what makes spreading channels over extra
  /// DTN servers (Globus Online) expensive.
  Watts active_base = 12.0;
};

/// Eq. 1 + Eq. 2 + activation base.
[[nodiscard]] Watts fine_grained_power(const PowerCoefficients& c, int active_cores,
                                       const host::Utilization& u);

}  // namespace eadt::power
