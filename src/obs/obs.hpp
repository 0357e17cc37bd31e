// Observability sink bundle and the multi-task collector.
//
// ObsSinks is the single pointer the engine layers carry: a null ObsSinks*
// (the default everywhere) means observability is fully off and costs one
// pointer compare per guarded site. The three members can be attached
// independently — a bench that only wants metrics pays nothing for tracing.
//
// ObsCollector owns observability for a whole sweep: one shared
// MetricsRegistry (atomic, commutative — see metrics.hpp) plus one private
// TraceBuffer and DecisionLog per task slot, so parallel workers never share
// a mutable buffer. slot() is the only synchronized call; exports walk slots
// in index order, which is what makes `--jobs N` output byte-identical to
// `--jobs 1`.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/decision.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace eadt::obs {

/// Borrowed sink pointers; any subset may be null. The pointed-to sinks must
/// outlive every run they observe.
struct ObsSinks {
  MetricsRegistry* metrics = nullptr;
  TraceBuffer* trace = nullptr;
  DecisionLog* decisions = nullptr;

  [[nodiscard]] bool any() const noexcept {
    return metrics != nullptr || trace != nullptr || decisions != nullptr;
  }
};

class ObsCollector {
 public:
  explicit ObsCollector(std::size_t trace_cap = TraceBuffer::kDefaultCap)
      : trace_cap_(trace_cap) {}

  /// Get-or-create the sink bundle for task slot `index`. Thread-safe; the
  /// returned pointer is stable for the collector's lifetime. `label` names
  /// the slot in exports (first caller wins).
  ObsSinks* slot(std::size_t index, std::string label);

  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const noexcept { return metrics_; }

  void write_metrics_json(std::ostream& os) const { metrics_.write_json(os); }
  /// All slots merged, one trace process per slot, in slot order.
  void write_chrome_trace(std::ostream& os) const;
  /// All slots merged: `{"schema": "eadt-decisions-v1", "decisions": [...]}`
  /// with `slot`/`task` on every record.
  void write_decisions_json(std::ostream& os) const;
  /// Narrative across slots, with a heading per task.
  void write_narrative(std::ostream& os) const;

 private:
  struct Slot {
    std::string label;
    TraceBuffer trace;
    DecisionLog decisions;
    ObsSinks sinks;

    explicit Slot(std::size_t trace_cap) : trace(trace_cap) {}
  };

  mutable std::mutex mu_;
  std::size_t trace_cap_;
  MetricsRegistry metrics_;
  std::map<std::size_t, std::unique_ptr<Slot>> slots_;
};

}  // namespace eadt::obs
