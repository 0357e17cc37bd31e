// Discrete-event simulation core.
//
// The transfer engine is a fluid-flow model driven by a fixed-interval ticker
// (rates are recomputed each tick; per-file completions are resolved inside
// the tick), while adaptive controllers (HTEE's 5-second probes, SLAEE's
// adjustments) hang off scheduled events. Both live on this queue.
//
// Determinism: events at equal timestamps fire in scheduling order (a
// monotonically increasing sequence number breaks ties), and the engine never
// consults the wall clock.
//
// Implementation (MODEL.md §11): a binary min-heap (std::push_heap /
// std::pop_heap) of small (time, seq, slot, ticker) keys. One-shot callables
// sit in a slot-indexed table with a free list, repeating ones in a ticker
// table, so the heap moves only keys. cancel() finds the key by its seq and
// removes it at once. A product simulation holds one ticker plus its fault
// and submission events and cancels a few at most, so the linear search is
// cheap.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "util/units.hpp"

namespace eadt::obs {
class MetricsRegistry;
}  // namespace eadt::obs

namespace eadt::sim {

/// Handle for a scheduled event; valid until the event fires or is cancelled.
/// `time`/`seq` are the event's identity and its deterministic ordering key;
/// a ticker's handle names its first occurrence and carries the ticker's
/// table index + 1 in `ticker` (0 for a one-shot event), which cancel() uses
/// to find whichever occurrence is pending.
struct EventId {
  Seconds time = 0.0;
  std::uint64_t seq = 0;
  std::uint32_t ticker = 0;
  [[nodiscard]] bool valid() const noexcept { return seq != 0; }
};

/// Cheap lifetime counters of one Simulation, for perf records. They are
/// bookkeeping only — reading them never perturbs event order — so two runs
/// of the same scenario report identical counters.
struct SimCounters {
  std::uint64_t scheduled = 0;   ///< schedule_at/schedule_after calls (ticker re-arms included)
  std::uint64_t fired = 0;       ///< events that actually executed
  std::uint64_t cancelled = 0;   ///< events removed before firing
  std::uint64_t ticks = 0;       ///< ticker occurrences fired
  std::uint64_t peak_queue = 0;  ///< high-water mark of pending_events()

  /// Add these counts into a metrics registry under the `sim.*` names
  /// (MODEL.md §12). peak_queue merges as a max gauge, the rest as counters.
  void publish(obs::MetricsRegistry& metrics) const;
};

class Simulation {
 public:
  Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] Seconds now() const noexcept { return now_; }

  /// Schedule `fn` at absolute simulated time `t` (>= now, clamped to now).
  EventId schedule_at(Seconds t, std::function<void()> fn);

  /// Schedule `fn` after `dt` simulated seconds (dt < 0 is clamped to 0).
  EventId schedule_after(Seconds dt, std::function<void()> fn);

  /// Cancel a pending event. Returns false if it already fired / was
  /// cancelled / the id is empty.
  bool cancel(EventId id);

  /// Repeating event every `interval`. The repetition stops when `fn`
  /// returns false. The returned id tracks the ticker across re-arms, so
  /// cancel() stops it at any point — before the first firing, from outside,
  /// or from inside the callback itself.
  EventId add_ticker(Seconds interval, std::function<bool()> fn);

  /// Run until the queue empties or simulated time would pass `deadline`.
  /// Returns the number of events fired.
  std::uint64_t run_until(Seconds deadline = std::numeric_limits<double>::infinity());

  /// Pending events.
  [[nodiscard]] std::size_t pending_events() const noexcept { return heap_.size(); }

  [[nodiscard]] const SimCounters& counters() const noexcept { return counters_; }

 private:
  /// Heap element. `slot` indexes events_ for a one-shot event and tickers_
  /// for a ticker occurrence (`ticker` != 0). The flag is a whole word so
  /// the key has no padding: with a bool, g++ 12 copied the key's tail with
  /// an overlapping 8-byte load that defeated store forwarding, which cost
  /// about 15 ns a ticker occurrence.
  struct Key {
    Seconds time = 0.0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    std::uint32_t ticker = 0;
  };

  /// Heap order for std::push_heap / std::pop_heap: true when `a` fires
  /// after `b`, so the heap's front is the earliest (time, seq).
  struct Later {
    bool operator()(const Key& a, const Key& b) const noexcept {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  /// A repeating event. `id` is the seq its EventId carries (0 marks a free
  /// entry); `pending` is the seq of its queued occurrence, 0 while its
  /// callback runs.
  struct Ticker {
    Seconds interval = 0.0;
    std::uint64_t id = 0;
    std::uint64_t pending = 0;
    bool cancelled = false;  ///< cancelled from inside its own callback
    std::function<bool()> fn;
  };

  /// Queue (time, slot) under a fresh seq and return the seq.
  std::uint64_t push(Seconds time, std::uint32_t slot, bool ticker);
  void fire_next();

  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  SimCounters counters_;
  std::vector<Key> heap_;
  std::vector<std::function<void()>> events_;
  std::vector<std::uint32_t> free_events_;
  std::vector<Ticker> tickers_;
};

}  // namespace eadt::sim
