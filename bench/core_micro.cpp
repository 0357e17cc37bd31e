// Core microbenchmark suite: the engine hot paths, self-timed, with the
// event queue raced against the std::map implementation it replaced.
//
// Five series (BENCH_core.json, schema eadt-bench-v1, `micro` section):
//   * event_queue_sched_fire_cancel — randomized schedule/fire/cancel churn
//     on sim::Simulation vs the reference std::map queue, bench::RefSim
//     (ref_sim.hpp; same op sequence; the speedup figure is the PR-over-PR
//     perf gate);
//   * ticker_churn — re-arm fast path: many concurrent tickers firing;
//   * fair_share_rounds — net::fair_share_reference_into with a warmed scratch;
//   * fair_share_waterfill_dist — net::WaterfillSolver dist mode at 10^6
//     flows (10^5 under --quick) vs the per-flow reference loop on the same
//     round, bitwise-checked before timing (its speedup is a CI tripwire);
//   * session_ticks — whole TransferSession steady-state ticks per second.
//
// Wall-clock numbers are the *non-deterministic* side of the schema: the ops
// counts are replay-stable, the rates are the perf trajectory.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <utility>
#include <vector>

#include "baselines/baselines.hpp"
#include "bench_common.hpp"
#include "net/fair_share.hpp"
#include "obs/obs.hpp"
#include "proto/session.hpp"
#include "ref_sim.hpp"
#include "sim/simulation.hpp"
#include "testbeds/testbeds.hpp"
#include "util/rng.hpp"

namespace {

using namespace eadt;

volatile double g_sink = 0.0;  // defeats dead-code elimination

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One deterministic session-shaped churn round-trip, mirroring what the
/// golden counters say real runs look like (ticks dominate fired events and
/// the queue stays shallow): every round starts a finite ticker, schedules a
/// burst of one-shot control events, cancels a wave of remembered ids (some
/// already fired, some mid-flight tickers — both implementations pay the
/// same misses), then advances time so the live tickers fire. Returns the
/// number of queue operations performed.
template <typename Queue>
std::uint64_t queue_churn(Queue& q, int rounds) {
  Rng rng(0xC0DEC0DEULL);
  std::vector<sim::EventId> ids;
  ids.reserve(64);
  std::uint64_t ops = 0;
  int spin = 0;
  const auto payload = [&] { ++spin; };
  for (int r = 0; r < rounds; ++r) {
    // ~6 tickers stay live in steady state (one added per round, each
    // self-stopping after 64 occurrences), each firing ~10 times per round:
    // ticks end up ~85% of fired events, like a session's counters.
    {
      auto left = 64;
      ids.push_back(q.add_ticker(rng.uniform(0.05, 0.4),
                                 [left, &spin]() mutable {
                                   ++spin;
                                   return --left > 0;
                                 }));
      ++ops;
    }
    for (int k = 0; k < 8; ++k) {
      ids.push_back(q.schedule_at(q.now() + rng.uniform(0.0, 4.0), payload));
      ++ops;
    }
    for (int k = 0; k < 3 && !ids.empty(); ++k) {
      const std::size_t pick = rng.uniform_int(0, ids.size() - 1);
      q.cancel(ids[pick]);
      ++ops;
      ids[pick] = ids.back();
      ids.pop_back();
    }
    ops += q.run_until(q.now() + 2.0);
  }
  ops += q.run_until(1e18);  // drain: every ticker self-stops
  g_sink = static_cast<double>(spin);
  return ops;
}

exp::MicroSample bench_event_queue(int rounds) {
  // Untimed warm-up pass so both sides measure steady-state allocator and
  // cache behaviour, not first-touch page faults.
  {
    sim::Simulation w1;
    queue_churn(w1, rounds / 8 + 1);
    bench::RefSim w2;
    queue_churn(w2, rounds / 8 + 1);
  }
  sim::Simulation heap;
  auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t ops = queue_churn(heap, rounds);
  const double heap_ms = ms_since(t0);

  bench::RefSim map;
  t0 = std::chrono::steady_clock::now();
  const std::uint64_t map_ops = queue_churn(map, rounds);
  const double map_ms = ms_since(t0);
  if (map_ops != ops) {
    std::cerr << "FATAL: baseline executed a different op count (" << map_ops
              << " vs " << ops << ")\n";
    std::exit(1);
  }

  exp::MicroSample m;
  m.name = "event_queue_sched_fire_cancel";
  m.ops = ops;
  m.wall_ms = heap_ms;
  m.ops_per_sec = heap_ms > 0.0 ? static_cast<double>(ops) * 1000.0 / heap_ms : 0.0;
  m.baseline_ops_per_sec =
      map_ms > 0.0 ? static_cast<double>(ops) * 1000.0 / map_ms : 0.0;
  m.speedup =
      m.baseline_ops_per_sec > 0.0 ? m.ops_per_sec / m.baseline_ops_per_sec : 0.0;
  return m;
}

exp::MicroSample bench_ticker_churn(int tickers, std::uint64_t fires_each) {
  sim::Simulation sim;
  for (int i = 0; i < tickers; ++i) {
    auto left = fires_each;
    sim.add_ticker(0.1 + 0.01 * static_cast<double>(i % 7),
                   [left]() mutable { return --left > 0; });
  }
  const auto t0 = std::chrono::steady_clock::now();
  sim.run_until();
  const double ms = ms_since(t0);
  g_sink = sim.now();

  exp::MicroSample m;
  m.name = "ticker_churn";
  m.ops = sim.counters().ticks;
  m.wall_ms = ms;
  m.ops_per_sec = ms > 0.0 ? static_cast<double>(m.ops) * 1000.0 / ms : 0.0;
  return m;
}

exp::MicroSample bench_fair_share(int calls) {
  Rng rng(7);
  std::vector<net::Demand> demands;
  for (int i = 0; i < 64; ++i) {
    demands.push_back({rng.uniform(1e8, 5e9), rng.uniform(1.0, 4.0)});
  }
  net::FairShareScratch scratch;
  std::vector<BitsPerSecond> alloc;
  double acc = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < calls; ++i) {
    // Nudge the capacity per call so the loop cannot be folded away.
    const double cap = gbps(10.0) + static_cast<double>(i % 97);
    acc += net::fair_share_reference_into(cap, demands, alloc, scratch);
  }
  const double ms = ms_since(t0);
  g_sink = acc;

  exp::MicroSample m;
  m.name = "fair_share_rounds";
  m.ops = static_cast<std::uint64_t>(calls);
  m.wall_ms = ms;
  m.ops_per_sec = ms > 0.0 ? static_cast<double>(m.ops) * 1000.0 / ms : 0.0;
  return m;
}

/// Fair share at fleet scale: one arbiter-shaped round of `flows` flows in
/// 96 duplicate-demand clusters forming a capping CASCADE — each cluster's
/// cap/weight ratio sits just inside the next filling round's waterlevel
/// window, so progressive filling retires exactly one cluster per round and
/// pays rounds * survivors, the per-flow loop's real cost model under
/// heterogeneous fleets. The waterfill solver takes the same round in dist
/// form — 96 group entries — and is raced against the reference loop on the
/// expansion. Before any timing, one solve is checked BITWISE against the
/// reference (per-member rates and total); a mismatch is fatal, because the
/// solver's whole contract is exact equivalence.
exp::MicroSample bench_waterfill(std::uint64_t flows) {
  Rng rng(0xFA17CAFEULL);
  constexpr int kClusters = 96;
  constexpr int kSurvivors = 4;  // left uncapped: the terminal waterlevel round
  const std::uint64_t count = std::max<std::uint64_t>(flows / kClusters, 1);

  std::vector<double> weights;
  double w_active = 0.0;
  for (int j = 0; j < kClusters; ++j) {
    weights.push_back(static_cast<double>(rng.uniform_int(1, 8)));
    weights.back() += rng.uniform(0.0, 0.5);  // no two clusters collapse
    w_active += weights.back() * static_cast<double>(count);
  }

  // Walk the filling recurrence to place each cluster's ratio inside the
  // (share_{j-1}, share_j] window: cluster j then caps in round j and no
  // earlier. Windows are ~1e-4 wide relative — far above the solver's 1e-12
  // certification band, far below anything that would merge rounds.
  const BitsPerSecond capacity = 1e12;
  std::vector<net::DemandGroup> groups;
  double remaining = capacity;
  double prev_share = 0.0;
  for (int j = 0; j < kClusters - kSurvivors; ++j) {
    const double share = remaining / w_active;  // round j's waterlevel
    const double key = prev_share + 0.9 * (share - prev_share);
    const double cap = key * weights[static_cast<std::size_t>(j)];
    groups.push_back({cap, weights[static_cast<std::size_t>(j)], count});
    remaining -= cap * static_cast<double>(count);
    w_active -= weights[static_cast<std::size_t>(j)] * static_cast<double>(count);
    prev_share = share;
  }
  for (int j = kClusters - kSurvivors; j < kClusters; ++j) {
    // Survivors: ratio far above any waterlevel, so the final round splits
    // what's left by weight — the convergence the acceptance check pins.
    groups.push_back({prev_share * weights[static_cast<std::size_t>(j)] * 8.0,
                      weights[static_cast<std::size_t>(j)], count});
  }
  const std::uint64_t members = count * static_cast<std::uint64_t>(kClusters);

  std::vector<net::Demand> expanded;
  expanded.reserve(members);
  for (const auto& g : groups) {
    expanded.insert(expanded.end(), static_cast<std::size_t>(g.count),
                    net::Demand{g.cap, g.weight});
  }

  // Correctness gate, untimed: dist solve vs reference on the expansion.
  net::WaterfillSolver solver;
  net::FairShareScratch scratch;
  std::vector<BitsPerSecond> group_rates;
  std::vector<BitsPerSecond> ref_alloc;
  const BitsPerSecond total = solver.solve_dist(capacity, groups, group_rates);
  const BitsPerSecond ref_total =
      net::fair_share_reference_into(capacity, expanded, ref_alloc, scratch);
  if (total != ref_total) {
    std::cerr << "FATAL: waterfill total diverged from reference ("
              << total << " vs " << ref_total << ")\n";
    std::exit(1);
  }
  std::size_t at = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (std::uint64_t k = 0; k < groups[g].count; ++k, ++at) {
      if (group_rates[g] != ref_alloc[at]) {
        std::cerr << "FATAL: waterfill rate diverged from reference at flow "
                  << at << " (" << group_rates[g] << " vs " << ref_alloc[at]
                  << ")\n";
        std::exit(1);
      }
    }
  }
  // Convergence: oversubscribed, so the fill must place (essentially) the
  // whole capacity.
  if (!(total > 0.999999 * capacity && total < 1.000001 * capacity)) {
    std::cerr << "FATAL: waterfill did not converge (placed " << total
              << " of " << capacity << ")\n";
    std::exit(1);
  }

  const bool quick = flows < 1000000;
  const int dist_calls = quick ? 8 : 24;
  const int ref_calls = quick ? 2 : 3;

  double acc = 0.0;
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < dist_calls; ++i) {
    // Nudge the capacity per call so the loop cannot be folded away.
    acc += solver.solve_dist(capacity + static_cast<double>(i % 97), groups,
                             group_rates);
  }
  const double dist_ms = ms_since(t0);

  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < ref_calls; ++i) {
    acc += net::fair_share_reference_into(capacity + static_cast<double>(i % 97),
                                          expanded, ref_alloc, scratch);
  }
  const double ref_ms = ms_since(t0);
  g_sink = acc;

  // Both sides are rated in flow-allocations per second, so the speedup is
  // the per-flow cost ratio even though the call counts differ.
  exp::MicroSample m;
  m.name = "fair_share_waterfill_dist";
  m.ops = static_cast<std::uint64_t>(dist_calls) * members;
  m.wall_ms = dist_ms;
  m.ops_per_sec = dist_ms > 0.0 ? static_cast<double>(m.ops) * 1000.0 / dist_ms : 0.0;
  const double ref_ops = static_cast<double>(ref_calls) * static_cast<double>(members);
  m.baseline_ops_per_sec = ref_ms > 0.0 ? ref_ops * 1000.0 / ref_ms : 0.0;
  m.speedup =
      m.baseline_ops_per_sec > 0.0 ? m.ops_per_sec / m.baseline_ops_per_sec : 0.0;
  return m;
}

exp::MicroSample bench_session_ticks(unsigned scale, obs::ObsSinks* sinks) {
  auto t = testbeds::didclab();
  t.recipe.total_bytes = std::max<Bytes>(t.recipe.total_bytes / scale, 64ULL << 20);
  const auto ds = t.make_dataset();
  proto::SessionConfig config;
  config.obs = sinks;  // null on unobserved runs: the timed loop is untouched
  proto::TransferSession session(t.env, ds, baselines::plan_promc(t.env, ds, 4),
                                 config);
  const auto t0 = std::chrono::steady_clock::now();
  const auto res = session.run();
  const double ms = ms_since(t0);
  g_sink = res.duration;

  exp::MicroSample m;
  m.name = "session_ticks";
  m.ops = res.sim_counters.ticks;
  m.wall_ms = ms;
  m.ops_per_sec = ms > 0.0 ? static_cast<double>(m.ops) * 1000.0 / ms : 0.0;
  return m;
}

void print_sample(const exp::MicroSample& m) {
  std::cout << "  " << m.name << ": " << m.ops << " ops in " << m.wall_ms << " ms  ("
            << static_cast<std::uint64_t>(m.ops_per_sec) << " ops/s";
  if (m.baseline_ops_per_sec > 0.0) {
    std::cout << ", reference baseline " << static_cast<std::uint64_t>(m.baseline_ops_per_sec)
              << " ops/s, speedup " << m.speedup << "x";
  }
  std::cout << ")\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);
  // --quick raises scale to >= 32, which also shrinks the op counts below.
  const int div = opt.scale > 1 ? 8 : 1;

  std::cout << "== core microbenchmarks ==\n";
  // --trace-out/--metrics-out/--decisions observe the one real-engine series
  // (session_ticks); the raw queue/fair-share loops have nothing to trace.
  const auto collector = bench::make_collector(opt);
  exp::BenchRecord record;
  record.name = "core";  // BENCH_core.json, whatever the binary is called
  const auto t0 = std::chrono::steady_clock::now();

  record.micro.push_back(bench_event_queue(20000 / div));
  print_sample(record.micro.back());
  record.micro.push_back(bench_ticker_churn(64, static_cast<std::uint64_t>(40000 / div)));
  print_sample(record.micro.back());
  record.micro.push_back(bench_fair_share(200000 / div));
  print_sample(record.micro.back());
  record.micro.push_back(
      bench_waterfill(static_cast<std::uint64_t>(1000000 / div)));
  print_sample(record.micro.back());
  record.micro.push_back(bench_session_ticks(
      opt.scale, collector ? collector->slot(0, "session_ticks") : nullptr));
  print_sample(record.micro.back());

  record.total_wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  if (collector) {
    bench::write_obs_outputs(opt, *collector);
    record.metrics = collector->metrics().snapshot();
  }
  bench::write_bench_record(opt, std::move(record));
  return 0;
}
