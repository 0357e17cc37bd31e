// Stress tests for exp::TickPool, the persistent fan-out under the scheduler's
// master tick and SweepRunner::parallel_indexed. The pool hands work over by
// spinning on a phase word (generation, closed flag, workers inside) before
// parking on condition variables, and its workers claim indices from one
// another's blocks, so these tests aim at the hand-off itself: many
// back-to-back phases of every size class, exceptions in the middle of a
// phase, destruction while the workers are still spinning, more workers than
// CPUs, and the CPU placement of the workers. CI runs them under
// ThreadSanitizer as a named step.
#include <gtest/gtest.h>

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/tick_pool.hpp"

namespace eadt::exp {
namespace {

/// Per-index visit counters shared by the phases of one test.
struct Visits {
  explicit Visits(std::size_t n) : hits(n), expected(n, 0) {}

  static void count(void* ctx, std::size_t i) {
    static_cast<Visits*>(ctx)->hits[i].fetch_add(1, std::memory_order_relaxed);
  }

  /// After a run over [0, count): every index below count was hit exactly
  /// once more. Returns the first bad index, or hits.size() when the run was
  /// exact. A stray visit past count shows up as a surplus the next time a
  /// run covers that index, or in the final settle(0).
  std::size_t settle(std::size_t count) {
    for (std::size_t i = 0; i < hits.size(); ++i) {
      if (i < count) {
        ++expected[i];
      } else if (count > 0) {
        break;
      }
      if (hits[i].load(std::memory_order_relaxed) != expected[i]) return i;
    }
    return hits.size();
  }

  std::vector<std::atomic<std::uint64_t>> hits;
  std::vector<std::uint64_t> expected;
};

/// Phase sizes: empty, one index (the inline path), fewer indices than
/// workers, exactly as many, one more, and a large phase.
constexpr std::size_t kCounts[] = {0, 1, 2, 3, 4, 5, 1000};
constexpr std::size_t kMaxCount = 1000;

TEST(TickPool, BackToBackRunsVisitEveryIndexOnce) {
  TickPool pool(4);
  ASSERT_EQ(pool.jobs(), 4);
  Visits v(kMaxCount);
  constexpr int kRuns = 12000;
  for (int r = 0; r < kRuns; ++r) {
    const std::size_t count = kCounts[static_cast<std::size_t>(r) % std::size(kCounts)];
    pool.run(count, &Visits::count, &v);
    const std::size_t bad = v.settle(count);
    ASSERT_EQ(bad, kMaxCount) << "run " << r << " (count " << count << "): index " << bad
                              << " ran " << v.hits[bad].load() << " times in total, "
                              << "expected " << v.expected[bad];
  }
  ASSERT_EQ(v.settle(0), kMaxCount);
  // Occupancy counts every executed index once, whichever worker ran it.
  std::uint64_t ops = 0;
  for (int w = 0; w < pool.jobs(); ++w) ops += pool.worker_ops(w);
  std::uint64_t total = 0;
  for (const std::uint64_t e : v.expected) total += e;
  EXPECT_EQ(ops, total);
}

TEST(TickPool, WorkerExceptionIsRethrownAndPoolStaysUsable) {
  TickPool pool(4);
  struct Ctx {
    std::vector<std::atomic<int>> hits = std::vector<std::atomic<int>>(200);
    std::size_t throw_from = 0;  ///< every index >= this throws
  } ctx;
  const auto fn = [](void* p, std::size_t i) {
    auto& c = *static_cast<Ctx*>(p);
    c.hits[i].fetch_add(1, std::memory_order_relaxed);
    if (i >= c.throw_from) throw std::runtime_error("index " + std::to_string(i));
  };
  for (int round = 0; round < 200; ++round) {
    // Alternate a phase where many indices throw (the first capture wins)
    // with a clean one: the failed phase must not leak into the next.
    for (auto& h : ctx.hits) h.store(0);
    ctx.throw_from = static_cast<std::size_t>(round % 150);
    EXPECT_THROW(pool.run(ctx.hits.size(), fn, &ctx), std::runtime_error) << round;
    // The remaining indices still ran, each exactly once.
    for (std::size_t i = 0; i < ctx.hits.size(); ++i) {
      ASSERT_EQ(ctx.hits[i].load(), 1) << "round " << round << " index " << i;
    }
    for (auto& h : ctx.hits) h.store(0);
    ctx.throw_from = ctx.hits.size();
    EXPECT_NO_THROW(pool.run(ctx.hits.size(), fn, &ctx)) << round;
    for (std::size_t i = 0; i < ctx.hits.size(); ++i) {
      ASSERT_EQ(ctx.hits[i].load(), 1) << "round " << round << " index " << i;
    }
  }
}

TEST(TickPool, DestroyingASpinningPoolJoinsPromptly) {
  // Right after a run() the workers are inside their spin budget, not parked
  // on the condition variable; the destructor must stop them there too. A
  // pool that never ran (workers possibly not even started) must also join.
  using Clock = std::chrono::steady_clock;
  Visits v(64);
  double worst_ms = 0.0;
  for (int i = 0; i < 300; ++i) {
    auto pool = std::make_unique<TickPool>(4);
    if (i % 3 != 0) pool->run(64, &Visits::count, &v);
    const auto start = Clock::now();
    pool.reset();
    worst_ms = std::max(
        worst_ms, std::chrono::duration<double, std::milli>(Clock::now() - start).count());
  }
  // A parked or spinning worker sees the stop flag within its spin budget
  // (well under a millisecond of pause instructions); the bound only allows
  // for a loaded machine descheduling a thread.
  EXPECT_LT(worst_ms, 2000.0);
}

/// Restores the calling thread's CPU mask on scope exit, failed asserts too.
struct AffinityGuard {
  AffinityGuard() { ok = sched_getaffinity(0, sizeof(saved), &saved) == 0; }
  ~AffinityGuard() {
    if (ok) sched_setaffinity(0, sizeof(saved), &saved);
  }
  AffinityGuard(const AffinityGuard&) = delete;
  AffinityGuard& operator=(const AffinityGuard&) = delete;
  cpu_set_t saved{};
  bool ok = false;
};

TEST(TickPool, MoreWorkersThanCpusMakeProgress) {
  // taskset -c 0,1 in-process: pin this thread (and so the pool's workers,
  // which inherit the mask) to two CPUs, then run four workers. Spinning
  // workers must not starve the caller or each other into a deadlock.
  const AffinityGuard guard;
  ASSERT_TRUE(guard.ok);
  cpu_set_t two;
  CPU_ZERO(&two);
  int picked = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && picked < 2; ++cpu) {
    if (CPU_ISSET(cpu, &guard.saved)) {
      CPU_SET(cpu, &two);
      ++picked;
    }
  }
  ASSERT_GE(picked, 1);
  ASSERT_EQ(sched_setaffinity(0, sizeof(two), &two), 0);
  TickPool pool(4);
  Visits v(kMaxCount);
  for (int r = 0; r < 3000; ++r) {
    const std::size_t count = kCounts[static_cast<std::size_t>(r) % std::size(kCounts)];
    pool.run(count, &Visits::count, &v);
    const std::size_t bad = v.settle(count);
    ASSERT_EQ(bad, kMaxCount) << "run " << r << " index " << bad;
  }
  ASSERT_EQ(v.settle(0), kMaxCount);
}

TEST(TickPool, WorkerPlacementKeepsTheCallersCpuMask) {
  // Each worker is moved onto a CPU of its own when it starts, then given
  // back every CPU the caller may use: never pinned to one, and never
  // widened past the caller's mask (here cut to two CPUs, if there are two).
  const AffinityGuard guard;
  ASSERT_TRUE(guard.ok);
  cpu_set_t two;
  CPU_ZERO(&two);
  int picked = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && picked < 2; ++cpu) {
    if (CPU_ISSET(cpu, &guard.saved)) {
      CPU_SET(cpu, &two);
      ++picked;
    }
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(two), &two), 0);
  struct Ctx {
    std::vector<cpu_set_t> masks = std::vector<cpu_set_t>(kMaxCount);
    std::vector<int> cpus = std::vector<int>(kMaxCount, -1);
  } ctx;
  const auto fn = [](void* p, std::size_t i) {
    auto& c = *static_cast<Ctx*>(p);
    CPU_ZERO(&c.masks[i]);
    sched_getaffinity(0, sizeof(c.masks[i]), &c.masks[i]);
    c.cpus[i] = sched_getcpu();
  };
  TickPool pool(4);
  for (int r = 0; r < 50; ++r) {
    pool.run(kMaxCount, fn, &ctx);
    for (std::size_t i = 0; i < kMaxCount; ++i) {
      ASSERT_TRUE(CPU_EQUAL(&ctx.masks[i], &two)) << "run " << r << " index " << i;
      ASSERT_TRUE(CPU_ISSET(ctx.cpus[i], &two))
          << "run " << r << " index " << i << " ran on CPU " << ctx.cpus[i];
    }
  }
}

}  // namespace
}  // namespace eadt::exp
