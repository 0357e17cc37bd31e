// Span tracing over simulated time, exported as Chrome trace-event JSON.
//
// One TraceBuffer records the spans of one session/task and is written to by
// exactly one worker thread at a time (SweepRunner hands every task its own
// buffer via ObsCollector), so recording is plain vector appends — no locks
// on the hot path, and per-task event order is deterministic regardless of
// --jobs N. The exporter then lays tasks out as separate trace "processes"
// in slot order, so the merged file is byte-identical across job counts too.
//
// Track (tid) layout within one process, shared by everything that writes
// into a session's buffer:
//   tid 0                      algorithm / control (transfer span, probes,
//                              fault instants)
//   tid 1 + chunk              one track per chunk (chunk activity spans)
//   tid 64 + lane              channel leases; lanes are reused lowest-free
//                              so concurrent leases never overlap on a track
//
// Timestamps are simulated seconds (absolute transfer time — resumed legs
// continue, not restart), exported as the microseconds Chrome expects.
#pragma once

#include <array>
#include <cstddef>
#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.hpp"

namespace eadt::obs {

inline constexpr int kControlTid = 0;
inline constexpr int kChunkTidBase = 1;
inline constexpr int kLaneTidBase = 64;

/// One numeric key/value attached to an event. Keys must be string literals
/// or intern()ed — the buffer stores the pointer, not a copy.
struct TraceArg {
  const char* key = nullptr;
  double value = 0.0;
};

struct TraceEvent {
  enum class Phase : char {
    kBegin = 'B',
    kEnd = 'E',
    kInstant = 'i',
    kCounter = 'C',
  };
  Seconds t = 0.0;
  int tid = 0;
  Phase phase = Phase::kInstant;
  const char* name = nullptr;  ///< literal or intern()ed; null on kEnd
  const char* cat = nullptr;
  std::array<TraceArg, 3> args{};  ///< unused slots have key == nullptr
};

/// Bounded single-writer span buffer. When the cap is reached new Begin/
/// Instant/Counter events are counted as dropped instead of recorded; End
/// events are always kept so already-open spans still close, and the
/// exporter appends a `trace-truncated` instant when anything was dropped.
class TraceBuffer {
 public:
  static constexpr std::size_t kDefaultCap = 1 << 18;  // ~8 MB of events

  explicit TraceBuffer(std::size_t max_events = kDefaultCap);

  /// Copy a dynamic name into the buffer and return a pointer that stays
  /// valid for the buffer's lifetime. Repeated strings are deduplicated, so
  /// per-window names (e.g. "HTEE probe cc=3") cost one allocation total.
  const char* intern(std::string name);

  /// Label a track; shows up as the Perfetto thread name.
  void set_thread_name(int tid, const char* name);

  void begin(Seconds t, int tid, const char* name, const char* cat, TraceArg a = {},
             TraceArg b = {}, TraceArg c = {});
  void end(Seconds t, int tid);
  void instant(Seconds t, int tid, const char* name, const char* cat, TraceArg a = {},
               TraceArg b = {});
  /// Perfetto counter track (one per name, process-wide).
  void counter(Seconds t, const char* name, double value);

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept { return events_; }
  [[nodiscard]] const std::map<int, const char*>& thread_names() const noexcept {
    return thread_names_;
  }
  [[nodiscard]] std::size_t dropped() const noexcept { return dropped_; }

 private:
  void push(const TraceEvent& e);

  std::size_t max_events_;
  std::size_t dropped_ = 0;
  std::vector<TraceEvent> events_;
  std::map<int, const char*> thread_names_;
  std::set<std::string> interned_;  ///< node-based: c_str() pointers are stable
};

/// One traced task in a merged export: the buffer plus its process label.
struct TraceProcess {
  std::string label;
  const TraceBuffer* buffer = nullptr;
};

/// Write `{"traceEvents": [...]}` — the Chrome trace-event JSON object form,
/// loadable in Perfetto and chrome://tracing. Each TraceProcess becomes pid
/// `index + 1` with its label as the process name.
void write_chrome_trace(std::ostream& os, const std::vector<TraceProcess>& processes);

}  // namespace eadt::obs
