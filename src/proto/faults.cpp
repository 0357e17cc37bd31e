#include "proto/faults.hpp"

#include <algorithm>
#include <cmath>

namespace eadt::proto {
namespace {

std::string at_index(const char* what, std::size_t i) {
  return std::string(what) + "[" + std::to_string(i) + "]: ";
}

}  // namespace

std::optional<std::string> FaultPlan::validate() const {
  for (std::size_t i = 0; i < channel_drops.size(); ++i) {
    if (channel_drops[i].time < 0.0) {
      return at_index("channel_drops", i) + "negative fire time";
    }
  }
  for (std::size_t i = 0; i < outages.size(); ++i) {
    if (outages[i].start < 0.0) return at_index("outages", i) + "negative start time";
    if (outages[i].duration < 0.0) return at_index("outages", i) + "negative duration";
  }
  // Brownout windows set an absolute path factor and their end events restore
  // 1.0, so overlap would silently clobber the earlier window's recovery.
  // Windows on *different* paths never meet the same session (for_path keeps
  // at most one target plus the untargeted ones), but an untargeted window
  // (-1) coexists with every target, so it must not overlap any of them.
  std::vector<PathBrownoutEvent> sorted = brownouts;
  std::sort(sorted.begin(), sorted.end(),
            [](const PathBrownoutEvent& a, const PathBrownoutEvent& b) {
              return a.start < b.start;
            });
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i].start < 0.0) return at_index("brownouts", i) + "negative start time";
    if (sorted[i].duration < 0.0) return at_index("brownouts", i) + "negative duration";
    if (sorted[i].capacity_factor < 0.0 || sorted[i].capacity_factor > 1.0) {
      return at_index("brownouts", i) + "capacity_factor outside [0, 1]";
    }
    if (sorted[i].path < -1) return at_index("brownouts", i) + "path below -1";
    for (std::size_t j = i; j-- > 0;) {
      const bool same_session = sorted[i].path == sorted[j].path ||
                                sorted[i].path == -1 || sorted[j].path == -1;
      if (same_session && sorted[i].start < sorted[j].start + sorted[j].duration) {
        return "brownouts: windows overlap (second starts at " +
               std::to_string(sorted[i].start) + " s, inside the window ending at " +
               std::to_string(sorted[j].start + sorted[j].duration) + " s)";
      }
    }
  }
  if (stochastic.channel_drop_rate < 0.0) {
    return "stochastic.channel_drop_rate: negative drop rate";
  }
  if (stochastic.checksum_failure_prob < 0.0 || stochastic.checksum_failure_prob > 1.0) {
    return "stochastic.checksum_failure_prob: probability outside [0, 1]";
  }
  if (retry.backoff_initial < 0.0) return "retry.backoff_initial: negative delay";
  if (retry.backoff_multiplier <= 0.0) {
    return "retry.backoff_multiplier: must be positive";
  }
  if (retry.backoff_max < 0.0) return "retry.backoff_max: negative ceiling";
  if (retry.backoff_jitter < 0.0 || retry.backoff_jitter > 1.0) {
    return "retry.backoff_jitter: fraction outside [0, 1]";
  }
  if (retry.channel_retry_budget < 0) {
    return "retry.channel_retry_budget: negative budget";
  }
  return std::nullopt;
}

FaultPlan FaultPlan::for_path(int path_id) const {
  FaultPlan out = *this;
  std::erase_if(out.brownouts, [path_id](const PathBrownoutEvent& b) {
    return b.path != -1 && b.path != path_id;
  });
  return out;
}

Seconds retry_backoff_delay(const RetryPolicy& retry, int failures, Rng& rng) {
  Seconds d = retry.backoff_initial *
              std::pow(retry.backoff_multiplier,
                       static_cast<double>(std::max(0, failures - 1)));
  d = std::min(d, retry.backoff_max);
  if (retry.backoff_jitter > 0.0) {
    d *= 1.0 + retry.backoff_jitter * rng.uniform(-1.0, 1.0);
  }
  return std::max(d, 0.0);
}

}  // namespace eadt::proto
