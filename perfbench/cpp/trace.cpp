#include "trace.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <ostream>
#include <utility>

namespace perfbench {

namespace {

std::string_view layer_of(std::string_view name) {
  return name.substr(0, name.find('/'));
}

void write_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

Tracer::Tracer(std::string run_id) : run_id_(std::move(run_id)) {}

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::size_t Tracer::open(std::string_view name) {
  const std::size_t parent = stack_.empty() ? kNone : stack_.back();
  spans_.push_back({std::string(name), now_ns(), 0, parent});
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(std::size_t id) {
  assert(!stack_.empty() && stack_.back() == id);  // spans close in LIFO order
  spans_[id].end = now_ns();
  stack_.pop_back();
}

void Tracer::add(std::string_view name, std::int64_t start_ns, std::int64_t end_ns) {
  spans_.push_back(
      {std::string(name), start_ns, end_ns, stack_.empty() ? kNone : stack_.back()});
}

std::map<std::string, double> Tracer::layer_self_s() const {
  // Children of each span, by index; then each span's own interval minus the
  // union of its children's intervals (clipped to the parent).
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != kNone) children[spans_[i].parent].push_back(i);
  }
  std::map<std::string, double> self;
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Rec& s = spans_[i];
    iv.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t a = std::max(spans_[c].start, s.start);
      const std::int64_t b = std::min(spans_[c].end, s.end);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start;
    for (const auto& [a, b] : iv) {
      const std::int64_t from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    self[std::string(layer_of(s.name))] +=
        static_cast<double>(s.end - s.start - covered) * 1e-9;
  }
  return self;
}

double Tracer::total_s(std::string_view name) const {
  std::int64_t ns = 0;
  for (const Rec& s : spans_) {
    if (s.name == name) ns += s.end - s.start;
  }
  return static_cast<double>(ns) * 1e-9;
}

double Tracer::roots_s() const {
  std::int64_t ns = 0;
  for (const Rec& s : spans_) {
    if (s.parent == kNone) ns += s.end - s.start;
  }
  return static_cast<double>(ns) * 1e-9;
}

void Tracer::write_json(std::ostream& os,
                        const std::map<std::string, std::string>& metadata) const {
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start;
  os << "{\"displayTimeUnit\":\"ns\",\"metadata\":{\"run_id\":";
  write_string(os, run_id_);
  for (const auto& [k, v] : metadata) {
    os << ',';
    write_string(os, k);
    os << ':';
    write_string(os, v);
  }
  os << "},\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Rec& s = spans_[i];
    if (i > 0) os << ',';
    os << "\n{\"name\":";
    write_string(os, s.name);
    os << ",\"cat\":";
    write_string(os, layer_of(s.name));
    os << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << static_cast<double>(s.start - t0) * 1e-3
       << ",\"dur\":" << static_cast<double>(s.end - s.start) * 1e-3
       << ",\"args\":{\"id\":" << i << ",\"parent\":"
       << (s.parent == kNone ? -1 : static_cast<long long>(s.parent)) << ",\"run\":";
    write_string(os, run_id_);
    os << "}}";
  }
  os << "\n]}\n";
}

}  // namespace perfbench
