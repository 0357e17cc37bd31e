#include "obs/telemetry.hpp"

#include <algorithm>
#include <cassert>
#include <ostream>
#include <sstream>

#include "util/json.hpp"

namespace eadt::obs {
namespace {

void size_sample(TelemetrySample& s, std::size_t sites) {
  s.site_power_w.assign(sites, 0.0);
  s.site_cap_w.assign(sites, 0.0);
  s.site_phi.assign(sites, 0.0);
}

void write_sample(std::ostream& os, const TelemetrySample& s, const std::string& pad) {
  os << pad << "{\"t\": " << json_number(s.t)
     << ", \"running\": " << s.running << ", \"queued\": " << s.queued
     << ", \"deferred\": " << s.deferred << ", \"channels\": " << s.channels
     << ", \"shed\": " << s.shed
     << ", \"preempted\": " << s.preempted << ", \"migrated\": " << s.migrated
     << ", \"completed\": " << s.completed << ", \"failed\": " << s.failed
     << ", \"power_w\": " << json_number(s.power_w)
     << ", \"cap_w\": " << json_number(s.cap_w)
     << ", \"headroom_w\": " << json_number(std::max(0.0, s.cap_w - s.power_w));
  os << ", \"class_running\": [";
  for (std::size_t i = 0; i < s.class_running.size(); ++i) {
    os << (i ? ", " : "") << s.class_running[i];
  }
  os << "], \"class_burn\": [";
  for (std::size_t i = 0; i < s.class_burn.size(); ++i) {
    os << (i ? ", " : "") << json_number(s.class_burn[i]);
  }
  os << "], \"site_power_w\": [";
  for (std::size_t i = 0; i < s.site_power_w.size(); ++i) {
    os << (i ? ", " : "") << json_number(s.site_power_w[i]);
  }
  os << "], \"site_cap_w\": [";
  for (std::size_t i = 0; i < s.site_cap_w.size(); ++i) {
    os << (i ? ", " : "") << json_number(s.site_cap_w[i]);
  }
  os << "], \"site_phi\": [";
  for (std::size_t i = 0; i < s.site_phi.size(); ++i) {
    os << (i ? ", " : "") << json_number(s.site_phi[i]);
  }
  os << "]}";
}

}  // namespace

TelemetryHub::TelemetryHub(double stride_s, std::size_t capacity, std::size_t site_count)
    : stride_s_(stride_s), next_t_(0.0), site_count_(site_count) {
  if (!enabled()) return;
  ring_.resize(std::max<std::size_t>(capacity, 1));
  for (TelemetrySample& s : ring_) size_sample(s, site_count_);
  size_sample(scratch_, site_count_);
}

void TelemetryHub::record(double now) {
  if (!enabled()) return;
  scratch_.t = now;
  TelemetrySample& slot = ring_[head_];
  // Member-wise assign: the vectors are identically sized, so operator= on
  // them copies in place without reallocating.
  slot.t = scratch_.t;
  slot.running = scratch_.running;
  slot.queued = scratch_.queued;
  slot.deferred = scratch_.deferred;
  slot.channels = scratch_.channels;
  slot.shed = scratch_.shed;
  slot.preempted = scratch_.preempted;
  slot.migrated = scratch_.migrated;
  slot.completed = scratch_.completed;
  slot.failed = scratch_.failed;
  slot.power_w = scratch_.power_w;
  slot.cap_w = scratch_.cap_w;
  slot.class_running = scratch_.class_running;
  slot.class_burn = scratch_.class_burn;
  std::copy(scratch_.site_power_w.begin(), scratch_.site_power_w.end(),
            slot.site_power_w.begin());
  std::copy(scratch_.site_cap_w.begin(), scratch_.site_cap_w.end(),
            slot.site_cap_w.begin());
  std::copy(scratch_.site_phi.begin(), scratch_.site_phi.end(), slot.site_phi.begin());
  head_ = (head_ + 1) % ring_.size();
  ++seen_;
  // Advance the stride clock past `now` so a stalled simulation does not
  // produce duplicate samples at one instant.
  while (next_t_ <= now + 1e-9) next_t_ += stride_s_;
}

std::size_t TelemetryHub::size() const noexcept {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(seen_, static_cast<std::uint64_t>(ring_.size())));
}

const TelemetrySample& TelemetryHub::sample(std::size_t i) const {
  assert(i < size());
  const std::size_t n = size();
  // Oldest retained sample sits at head_ once the ring has wrapped.
  const std::size_t start = seen_ > n ? head_ : 0;
  return ring_[(start + i) % ring_.size()];
}

void TelemetryHub::write_json(std::ostream& os, int base_indent) const {
  const std::string outer = json_indent(base_indent);
  const std::string inner = json_indent(base_indent + 2);
  const std::string item = json_indent(base_indent + 4);
  const std::size_t n = size();
  const std::uint64_t dropped = seen_ - static_cast<std::uint64_t>(n);

  os << "{\n";
  os << inner << "\"schema\": \"eadt-telemetry-v1\",\n";
  os << inner << "\"stride_s\": " << json_number(stride_s_) << ",\n";
  os << inner << "\"sites\": " << site_count_ << ",\n";
  os << inner << "\"samples_seen\": " << seen_ << ",\n";
  os << inner << "\"samples_dropped\": " << dropped << ",\n";
  os << inner << "\"samples\": [";
  for (std::size_t i = 0; i < n; ++i) {
    os << (i ? ",\n" : "\n");
    write_sample(os, sample(i), item);
  }
  if (n > 0) os << "\n" << inner;
  os << "]\n" << outer << "}";
}

std::string TelemetryHub::to_json() const {
  std::ostringstream os;
  write_json(os, 0);
  return os.str();
}

TickFlightRecorder::TickFlightRecorder(std::size_t ring_ticks, std::size_t max_dumps)
    : ring_(std::max<std::size_t>(ring_ticks, 1)), max_dumps_(max_dumps) {
  // Reserve every byte a dump can need up front: trigger() must not grow
  // vectors even when fired from deep inside the tick loop.
  dumps_.reserve(max_dumps_);
}

void TickFlightRecorder::note(const FlightTick& tick) noexcept {
  ring_[head_] = tick;
  head_ = (head_ + 1) % ring_.size();
  if (filled_ < ring_.size()) ++filled_;
}

void TickFlightRecorder::trigger(std::string_view reason, double t) {
  if (dumps_.size() >= max_dumps_) {
    ++suppressed_;
    return;
  }
  dumps_.emplace_back();
  Dump& dump = dumps_.back();
  dump.reason.assign(reason);
  dump.t = t;
  dump.ticks.reserve(filled_);
  const std::size_t start = filled_ == ring_.size() ? head_ : 0;
  for (std::size_t i = 0; i < filled_; ++i) {
    dump.ticks.push_back(ring_[(start + i) % ring_.size()]);
  }
}

void TickFlightRecorder::write_json(std::ostream& os, int base_indent) const {
  const std::string outer = json_indent(base_indent);
  const std::string inner = json_indent(base_indent + 2);
  const std::string item = json_indent(base_indent + 4);
  const std::string tick_pad = json_indent(base_indent + 6);

  os << "{\n";
  os << inner << "\"schema\": \"eadt-flightrec-v1\",\n";
  os << inner << "\"ring_ticks\": " << ring_.size() << ",\n";
  os << inner << "\"suppressed\": " << suppressed_ << ",\n";
  os << inner << "\"dumps\": [";
  for (std::size_t d = 0; d < dumps_.size(); ++d) {
    const Dump& dump = dumps_[d];
    os << (d ? ",\n" : "\n") << item << "{\"reason\": ";
    write_json_string(os, dump.reason);
    os << ", \"t\": " << json_number(dump.t) << ", \"ticks\": [";
    for (std::size_t i = 0; i < dump.ticks.size(); ++i) {
      const FlightTick& ft = dump.ticks[i];
      os << (i ? ",\n" : "\n") << tick_pad << "{\"t\": " << json_number(ft.t)
         << ", \"running\": " << ft.running << ", \"queued\": " << ft.queued
         << ", \"deferred\": " << ft.deferred
         << ", \"power_w\": " << json_number(ft.power_w)
         << ", \"cap_w\": " << json_number(ft.cap_w)
         << ", \"watchdog_aborts\": " << ft.watchdog_aborts
         << ", \"cap_violations\": " << ft.cap_violations << "}";
    }
    if (!dump.ticks.empty()) os << "\n" << item;
    os << "]}";
  }
  if (!dumps_.empty()) os << "\n" << inner;
  os << "]\n" << outer << "}";
}

TickProfiler::TickProfiler(MetricsRegistry& registry) {
  const std::vector<double> bounds{1,    2,    5,     10,    20,    50,    100,
                                   200,  500,  1000,  2000,  5000,  10000, 20000,
                                   50000, 100000};
  phase_[kPrepare] = &registry.histogram("tickpipe.prepare_us", bounds);
  phase_[kArbiter] = &registry.histogram("tickpipe.arbiter_us", bounds);
  phase_[kApply] = &registry.histogram("tickpipe.apply_us", bounds);
  phase_[kCommit] = &registry.histogram("tickpipe.commit_us", bounds);
  for (std::size_t w = 0; w < kMaxWorkers; ++w) {
    worker_ops_[w] = &registry.gauge("tickpipe.worker" + std::to_string(w) + ".ops");
  }
}

void TickProfiler::record_worker_ops(std::size_t worker, std::uint64_t ops) noexcept {
  if (worker >= kMaxWorkers) return;
  worker_ops_[worker]->set(static_cast<double>(ops));
}

}  // namespace eadt::obs
