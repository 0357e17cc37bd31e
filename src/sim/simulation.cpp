#include "sim/simulation.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"

namespace eadt::sim {

void SimCounters::publish(obs::MetricsRegistry& metrics) const {
  metrics.counter("sim.events_scheduled").add(scheduled);
  metrics.counter("sim.events_fired").add(fired);
  metrics.counter("sim.events_cancelled").add(cancelled);
  metrics.counter("sim.ticker_ticks").add(ticks);
  metrics.gauge("sim.peak_queue").set_max(static_cast<double>(peak_queue));
}

Simulation::Simulation() {
  // A session's queue holds its ticker plus a handful of control events;
  // reserving up front keeps even the warm-up ticks off the allocator.
  heap_.reserve(64);
  events_.reserve(64);
  free_events_.reserve(64);
}

std::uint64_t Simulation::push(Seconds time, std::uint32_t slot, bool ticker) {
  heap_.push_back(Key{time, next_seq_, slot, ticker});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++counters_.scheduled;
  counters_.peak_queue = std::max<std::uint64_t>(counters_.peak_queue, heap_.size());
  return next_seq_++;
}

EventId Simulation::schedule_at(Seconds t, std::function<void()> fn) {
  const Seconds when = std::max(t, now_);
  std::uint32_t slot = 0;
  if (free_events_.empty()) {
    slot = static_cast<std::uint32_t>(events_.size());
    events_.push_back(std::move(fn));
  } else {
    slot = free_events_.back();
    free_events_.pop_back();
    events_[slot] = std::move(fn);
  }
  return EventId{when, push(when, slot, false)};
}

EventId Simulation::schedule_after(Seconds dt, std::function<void()> fn) {
  return schedule_at(now_ + std::max(dt, 0.0), std::move(fn));
}

EventId Simulation::add_ticker(Seconds interval, std::function<bool()> fn) {
  const Seconds when = now_ + std::max(interval, 0.0);
  // Reuse the first ended entry; a running simulation has one or two.
  auto it = std::find_if(tickers_.begin(), tickers_.end(),
                         [](const Ticker& t) { return t.id == 0; });
  if (it == tickers_.end()) it = tickers_.emplace(tickers_.end());
  const auto slot = static_cast<std::uint32_t>(it - tickers_.begin());
  it->interval = interval;
  it->fn = std::move(fn);
  it->id = it->pending = push(when, slot, true);
  return EventId{when, it->id, slot + 1};
}

bool Simulation::cancel(EventId id) {
  if (!id.valid()) return false;
  std::uint64_t seq = id.seq;
  Ticker* ticker = nullptr;
  if (id.ticker != 0) {
    if (id.ticker > tickers_.size() || tickers_[id.ticker - 1].id != id.seq) return false;
    ticker = &tickers_[id.ticker - 1];
    if (ticker->pending == 0) {
      // Cancelled from inside its own callback: the occurrence already left
      // the heap, so fire_next() ends the ticker once the callback returns.
      if (ticker->cancelled) return false;
      ticker->cancelled = true;
      return true;
    }
    seq = ticker->pending;
  }
  const auto it = std::find_if(heap_.begin(), heap_.end(),
                               [seq](const Key& k) { return k.seq == seq; });
  if (it == heap_.end()) return false;
  const std::uint32_t slot = it->slot;
  // Move the key to the front (no pending time is below -inf) and pop it.
  it->time = -std::numeric_limits<Seconds>::infinity();
  std::push_heap(heap_.begin(), it + 1, Later{});
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  ++counters_.cancelled;
  // Release captured state now, as the event would never run it.
  if (ticker != nullptr) {
    ticker->id = 0;
    ticker->fn = nullptr;
  } else {
    events_[slot] = nullptr;
    free_events_.push_back(slot);
  }
  return true;
}

void Simulation::fire_next() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  now_ = key.time;
  ++counters_.fired;

  if (!key.ticker) {
    // Free the slot before running the payload, so the callback can
    // schedule fresh events that reuse it.
    auto fn = std::move(events_[key.slot]);
    free_events_.push_back(key.slot);
    fn();
    return;
  }

  // The callable is moved to the stack for the call: the callback may add
  // tickers, and growing the table must not relocate a running
  // std::function.
  ++counters_.ticks;
  tickers_[key.slot].pending = 0;
  auto fn = std::move(tickers_[key.slot].fn);
  const bool keep = fn();
  Ticker& t = tickers_[key.slot];  // re-fetch: the table may have grown
  if (!keep || t.cancelled) {
    t.id = 0;
    t.cancelled = false;
    return;
  }
  t.fn = std::move(fn);
  t.pending = push(now_ + std::max(t.interval, 0.0), key.slot, true);
}

std::uint64_t Simulation::run_until(Seconds deadline) {
  std::uint64_t fired = 0;
  while (!heap_.empty() && heap_.front().time <= deadline) {
    fire_next();
    ++fired;
  }
  if (heap_.empty() && now_ < deadline && deadline < std::numeric_limits<double>::infinity()) {
    now_ = deadline;
  }
  return fired;
}

}  // namespace eadt::sim
