// The std::map event engine that sim::Simulation replaced, kept as the
// reference both are checked and timed against: tests/test_simulation.cpp
// replays random op scripts on the two and requires equal traces, clocks
// and counters, and bench/core_micro races them on one churn loop.
//
// Verbatim semantics: a std::map queue over (time, seq) with eager cancel,
// and tickers as a shared_ptr registry whose re-arm closure re-schedules
// itself (a fresh std::function plus a map node per occurrence), with the
// same counter discipline as sim::Simulation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <utility>

#include "sim/simulation.hpp"

namespace eadt::bench {

class RefSim {
 public:
  [[nodiscard]] Seconds now() const noexcept { return now_; }

  sim::EventId schedule_at(Seconds t, std::function<void()> fn) {
    const Seconds when = std::max(t, now_);
    const sim::EventId id{when, next_seq_++};
    queue_.emplace(Key{id.time, id.seq}, std::move(fn));
    ++counters_.scheduled;
    counters_.peak_queue = std::max<std::uint64_t>(counters_.peak_queue, queue_.size());
    return id;
  }

  sim::EventId schedule_after(Seconds dt, std::function<void()> fn) {
    return schedule_at(now_ + std::max(dt, 0.0), std::move(fn));
  }

  bool cancel(sim::EventId id) {
    if (!id.valid()) return false;
    if (auto it = tickers_.find(id.seq); it != tickers_.end()) {
      const sim::EventId current = it->second->current;
      tickers_.erase(it);
      counters_.cancelled += queue_.erase(Key{current.time, current.seq});
      return true;
    }
    const bool erased = queue_.erase(Key{id.time, id.seq}) > 0;
    counters_.cancelled += erased ? 1 : 0;
    return erased;
  }

  sim::EventId add_ticker(Seconds interval, std::function<bool()> fn) {
    const std::uint64_t key = next_seq_;  // seq the first occurrence will get
    auto state = std::make_shared<TickerState>();
    state->fn = std::move(fn);
    state->rearm = [this, interval, key]() {
      const auto it = tickers_.find(key);
      if (it == tickers_.end()) return;  // cancelled while this firing was queued
      ++counters_.ticks;
      const auto st = it->second;
      if (!st->fn()) {
        tickers_.erase(key);
        return;
      }
      if (tickers_.count(key) != 0) {  // fn may have cancelled its own ticker
        st->current = schedule_after(interval, st->rearm);
      }
    };
    tickers_.emplace(key, state);
    state->current = schedule_after(interval, state->rearm);
    return state->current;
  }

  std::uint64_t run_until(Seconds deadline = std::numeric_limits<double>::infinity()) {
    std::uint64_t fired = 0;
    while (!queue_.empty() && queue_.begin()->first.first <= deadline) {
      const auto it = queue_.begin();
      now_ = it->first.first;
      auto fn = std::move(it->second);
      queue_.erase(it);
      ++counters_.fired;
      fn();
      ++fired;
    }
    if (queue_.empty() && now_ < deadline &&
        deadline < std::numeric_limits<double>::infinity()) {
      now_ = deadline;
    }
    return fired;
  }

  [[nodiscard]] std::size_t pending_events() const noexcept { return queue_.size(); }
  [[nodiscard]] const sim::SimCounters& counters() const noexcept { return counters_; }

 private:
  using Key = std::pair<Seconds, std::uint64_t>;
  struct TickerState {
    sim::EventId current;
    std::function<bool()> fn;
    std::function<void()> rearm;
  };

  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  sim::SimCounters counters_;
  std::map<Key, std::function<void()>> queue_;
  std::map<std::uint64_t, std::shared_ptr<TickerState>> tickers_;
};

}  // namespace eadt::bench
