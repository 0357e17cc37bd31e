#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "util/json.hpp"

namespace eadt::obs {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {}

void Histogram::observe(double v) noexcept {
  if (!std::isfinite(v)) return;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  counts_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  const double fixed = v * kSumScale;
  if (fixed > 0.0) {
    sum_fixed_.fetch_add(static_cast<std::uint64_t>(std::llround(fixed)),
                         std::memory_order_relaxed);
  }
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) it = counters_.try_emplace(std::string(name)).first;
  return it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) it = gauges_.try_emplace(std::string(name)).first;
  return it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name, std::vector<double> bounds) {
  std::lock_guard lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.try_emplace(std::string(name), std::move(bounds)).first;
  }
  return it->second;
}

bool MetricsRegistry::empty() const {
  std::lock_guard lock(mu_);
  return counters_.empty() && gauges_.empty() && histograms_.empty();
}

std::vector<MetricSnapshot> MetricsRegistry::snapshot() const {
  std::lock_guard lock(mu_);
  std::vector<MetricSnapshot> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    MetricSnapshot s;
    s.kind = MetricSnapshot::Kind::kCounter;
    s.name = name;
    s.count = c.value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, g] : gauges_) {
    MetricSnapshot s;
    s.kind = MetricSnapshot::Kind::kGauge;
    s.name = name;
    s.value = g.value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, h] : histograms_) {
    MetricSnapshot s;
    s.kind = MetricSnapshot::Kind::kHistogram;
    s.name = name;
    s.count = h.count();
    s.value = h.sum();
    s.bounds = h.bounds();
    s.buckets.reserve(h.bucket_count());
    for (std::size_t i = 0; i < h.bucket_count(); ++i) s.buckets.push_back(h.bucket(i));
    out.push_back(std::move(s));
  }
  return out;
}

double histogram_quantile(const MetricSnapshot& h, double q) noexcept {
  if (h.kind != MetricSnapshot::Kind::kHistogram || h.count == 0 || h.buckets.empty()) {
    return 0.0;
  }
  q = std::min(1.0, std::max(0.0, q));
  const double rank = q * static_cast<double>(h.count);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    const std::uint64_t in_bucket = h.buckets[i];
    if (in_bucket == 0) continue;
    const double below = static_cast<double>(cum);
    cum += in_bucket;
    if (static_cast<double>(cum) < rank) continue;
    // The overflow bucket has no upper edge; the last finite bound is the
    // best (under-)estimate we can report without inventing a scale.
    if (i >= h.bounds.size()) return h.bounds.empty() ? 0.0 : h.bounds.back();
    const double lo = i == 0 ? 0.0 : h.bounds[i - 1];
    const double hi = h.bounds[i];
    const double frac = (rank - below) / static_cast<double>(in_bucket);
    return lo + (hi - lo) * std::min(1.0, std::max(0.0, frac));
  }
  return h.bounds.empty() ? 0.0 : h.bounds.back();
}

void write_metrics_object(std::ostream& os, const std::vector<MetricSnapshot>& metrics,
                          int base_indent, std::string_view schema) {
  const std::string outer = json_indent(base_indent);
  const std::string inner = json_indent(base_indent + 2);
  const std::string item = json_indent(base_indent + 4);

  os << "{\n";
  bool first_section = true;
  if (!schema.empty()) {
    os << inner << "\"schema\": ";
    write_json_string(os, schema);
    first_section = false;
  }

  const auto open_section = [&](const char* key) {
    if (!first_section) os << ",\n";
    first_section = false;
    os << inner << '"' << key << "\": {";
  };

  const auto each = [&](MetricSnapshot::Kind kind, auto&& emit) {
    bool first = true;
    for (const auto& m : metrics) {
      if (m.kind != kind) continue;
      os << (first ? "\n" : ",\n") << item;
      write_json_string(os, m.name);
      os << ": ";
      emit(m);
      first = false;
    }
    if (!first) os << "\n" << inner;
    os << "}";
  };

  open_section("counters");
  each(MetricSnapshot::Kind::kCounter, [&](const MetricSnapshot& m) { os << m.count; });
  open_section("gauges");
  each(MetricSnapshot::Kind::kGauge,
       [&](const MetricSnapshot& m) { os << json_number(m.value); });
  open_section("histograms");
  each(MetricSnapshot::Kind::kHistogram, [&](const MetricSnapshot& m) {
    os << "{\"bounds\": [";
    for (std::size_t i = 0; i < m.bounds.size(); ++i) {
      os << (i ? ", " : "") << json_number(m.bounds[i]);
    }
    os << "], \"buckets\": [";
    for (std::size_t i = 0; i < m.buckets.size(); ++i) os << (i ? ", " : "") << m.buckets[i];
    os << "], \"count\": " << m.count << ", \"sum\": " << json_number(m.value) << "}";
  });
  os << "\n" << outer << "}";
}

void MetricsRegistry::write_json(std::ostream& os) const {
  write_metrics_object(os, snapshot(), 0, "eadt-metrics-v1");
  os << "\n";
}

}  // namespace eadt::obs
