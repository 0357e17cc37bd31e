// Benchmark-side span recorder for the traced run.
//
// Every span is recorded from the benchmark's own code around a public call
// into one layer of the program (a sweep task, Scheduler::run, run_queue, a
// replayed tick phase or arbiter round, a set-up step). A span carries a
// name "layer/what", a start, an end and its parent; all spans of one run
// share the tracer's run id. Spans stay in memory and are written once, at
// exit, as Chrome trace-event JSON (loadable in ui.perfetto.dev).
//
// A layer's self time is the union of its spans' intervals minus the parts
// their child spans cover. Spans in the "bench" layer are the benchmark's own
// glue; their self time is what no layer accounts for.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  explicit Tracer(std::string run_id);

  [[nodiscard]] static std::int64_t now_ns();

  /// Open a span under the innermost open span; returns its id.
  std::size_t open(std::string_view name);
  void close(std::size_t id);
  /// Record a finished span with explicit times under the innermost open
  /// span (used for phases timed once across all sessions of a tick).
  void add(std::string_view name, std::int64_t start_ns, std::int64_t end_ns);

  /// Self time per layer in seconds (layer = span name up to the first '/').
  [[nodiscard]] std::map<std::string, double> layer_self_s() const;
  /// Summed duration of every span named exactly `name`, in seconds.
  [[nodiscard]] double total_s(std::string_view name) const;
  /// Summed duration of the root spans (spans without a parent), seconds.
  [[nodiscard]] double roots_s() const;

  /// Chrome trace-event JSON; `metadata` lands in the top-level object.
  void write_json(std::ostream& os,
                  const std::map<std::string, std::string>& metadata) const;

 private:
  struct Rec {
    std::string name;
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::size_t parent = kNone;
  };
  std::string run_id_;
  std::vector<Rec> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span; a no-op when the tracer is null (the untraced runs).
class Span {
 public:
  Span(Tracer* tracer, std::string_view name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->open(name) : Tracer::kNone) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::size_t id_;
};

}  // namespace perfbench
