#include "exp/health.hpp"

#include <algorithm>
#include <cmath>

namespace eadt::exp {

HealthMonitor::HealthMonitor(int n_paths)
    : state_(static_cast<std::size_t>(std::max(0, n_paths))) {}

double HealthMonitor::fault_phi_at(const PathState& s, Seconds at) {
  if (s.fault_phi <= 0.0) return 0.0;
  const Seconds dt = std::max(0.0, at - s.fault_at);
  return s.fault_phi * std::exp2(-dt / kFaultHalflife);
}

void HealthMonitor::observe_goodput(int path, Seconds at, double fraction) {
  if (path < 0 || path >= static_cast<int>(state_.size())) return;
  auto& s = state_[static_cast<std::size_t>(path)];
  fraction = std::min(1.0, std::max(0.0, fraction));
  s.ewma_fraction += kEwmaAlpha * (fraction - s.ewma_fraction);
  now_ = std::max(now_, at);
}

void HealthMonitor::observe_fault(int path, Seconds at, double weight) {
  if (path < 0 || path >= static_cast<int>(state_.size())) return;
  auto& s = state_[static_cast<std::size_t>(path)];
  // Bring the decaying accumulator current, then add the new demerit.
  s.fault_phi = fault_phi_at(s, at) + kFaultWeight * std::max(0.0, weight);
  s.fault_at = std::max(s.fault_at, at);
  now_ = std::max(now_, at);
}

double HealthMonitor::phi(int path) const {
  if (path < 0 || path >= static_cast<int>(state_.size())) return kFailPhi;
  const auto& s = state_[static_cast<std::size_t>(path)];
  const double frac = std::max(kMinFraction, s.ewma_fraction);
  return -std::log10(frac) + fault_phi_at(s, now_);
}

}  // namespace eadt::exp
