// A persistent worker pool for deterministic index-sharded fan-out.
//
// SweepRunner::parallel_indexed spawned a fresh thread set per call, which is
// fine for a handful of multi-second sweep cells but hopeless for a scheduler
// master tick that fans out sub-millisecond session phases several times per
// tick. TickPool keeps its workers alive between dispatches, so issuing one
// parallel phase costs a generation bump and a pending-count handshake
// instead of N thread spawns.
//
// The hand-off is spin-then-park on both sides. Between phases a worker
// spins on the phase word for kSpinIterations before it parks on a
// condition variable, and the caller spins the same way before it parks to
// await the drain. A master tick's phases are microseconds apart, so a
// steady fleet run never touches the condition variables; a pool left idle
// for longer than the spin budget sleeps. Spinners yield the CPU now and
// then, so a pool with more workers than CPUs still makes progress.
//
// The determinism contract is the caller's, and the pool is built to make it
// easy to keep: work is addressed by index only, the pool never reorders or
// batches, and `run` returns only after every index in [0, count) has
// executed. A caller whose fn(i) touches slot i of caller-owned storage and
// nothing shared gets byte-identical results at any worker count — the same
// bar SweepRunner and the exp::Scheduler tick pipeline are tested against.
//
// Who runs which index: [0, count) is cut into jobs() contiguous blocks,
// and worker w owns block w (the caller is worker jobs() - 1). A worker
// claims its own block's indices one at a time from the block's cursor,
// then helps with the other blocks through their cursors. Indices are
// claimed one by one, so SweepRunner's tasks, which differ a hundredfold in
// cost, stay balanced. A caller with uniform items (the scheduler hands over
// its tenants in small chunks) gets the same thread, and so the same warm
// cache, for the same block phase after phase, while the block of a slow or
// descheduled worker is finished by whoever is free.
//
// Nobody waits for a worker that is not there. A worker joins a phase only
// while it is open; the caller's own drain sweeps every block, so once it
// returns every index has been claimed, and the caller closes the phase and
// waits only for the workers that joined it. A worker that slept through a
// phase, or arrived after it closed, costs the phase nothing.
//
// Dispatch is allocation-free after construction (the alloc-guard bar for
// everything on the master-tick path): the work item is a raw function
// pointer plus a context pointer, and the handshake is atomics plus
// mutex/condvar state owned by the pool. Exceptions thrown by fn are captured
// (first one wins, matching parallel_indexed), the remaining indices still
// execute, and the winner is rethrown on the calling thread after the phase
// drains.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace eadt::exp {

class TickPool {
 public:
  /// Spin-loop iterations (one CPU pause each, with a scheduler yield every
  /// 64) an idle worker, or the caller awaiting the workers that joined a
  /// phase, spends polling before it blocks. Long enough to bridge the
  /// serial sections between a master tick's phases, short enough that an
  /// idle pool sleeps within about a millisecond.
  static constexpr int kSpinIterations = 1 << 14;

  /// A pool of `jobs` workers total: `jobs - 1` worker threads plus the
  /// calling thread, which always participates in run(). jobs <= 1 spawns no
  /// threads at all — run() then executes inline, in index order.
  explicit TickPool(int jobs);
  ~TickPool();

  TickPool(const TickPool&) = delete;
  TickPool& operator=(const TickPool&) = delete;

  /// Worker count including the caller (always >= 1).
  [[nodiscard]] int jobs() const noexcept {
    return static_cast<int>(threads_.size()) + 1;
  }

  /// Execute fn(ctx, i) for every i in [0, count), sharded across the pool
  /// and the calling thread; blocks until all indices have run. fn must
  /// confine its writes to per-index state. Not reentrant: one run() at a
  /// time per pool.
  void run(std::size_t count, void (*fn)(void* ctx, std::size_t index), void* ctx);

  /// Indices executed by worker `w` (in [0, jobs())) across every run() so
  /// far; slot jobs() - 1 is the calling thread (inline executions count
  /// there too). Wall-clock occupancy diagnostics for the tick profiler —
  /// never part of deterministic output.
  [[nodiscard]] std::uint64_t worker_ops(int w) const noexcept {
    return w >= 0 && w < jobs()
               ? ops_[static_cast<std::size_t>(w)].load(std::memory_order_relaxed)
               : 0;
  }

 private:
  /// One worker's block of the current phase: indices [next, end) are
  /// still unclaimed. A cache line each, so the owner's claims never bounce
  /// another worker's cursor.
  struct alignas(64) Block {
    std::atomic<std::size_t> next{0};
    std::size_t end = 0;
  };

  // Phase word: the generation (bumped once per run()) in the high 32 bits,
  // the closed flag, and in the low bits the number of workers inside the
  // phase. A worker joins with a compare-exchange that fails once the phase
  // is closed or superseded, so the caller can rewrite the phase state as
  // soon as it has closed the phase and seen the count drop to zero.
  static constexpr std::uint64_t kClosed = std::uint64_t{1} << 31;
  static constexpr std::uint64_t kInside = kClosed - 1;
  static constexpr std::uint64_t generation(std::uint64_t word) noexcept {
    return word >> 32;
  }

  void worker_loop(std::size_t worker);
  void drain(std::size_t worker) noexcept;

  // Current phase. Written by the caller before it publishes a generation
  // (release) and read by workers only after they joined it (acquire); the
  // caller rewrites them only after every joined worker has left.
  void (*fn_)(void*, std::size_t) = nullptr;
  void* ctx_ = nullptr;
  std::vector<Block> blocks_;                    ///< one per worker
  std::vector<std::atomic<std::uint64_t>> ops_;  ///< executed indices per worker
  std::atomic<std::uint64_t> phase_{0};
  std::atomic<bool> stop_{false};
  // Parking: the generation and stop_ change only under mutex_ (the start
  // predicate), and a worker that leaves a closed phase last locks mutex_
  // before it notifies, so neither side can miss a wake-up.
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::exception_ptr first_error_;  ///< written under mutex_; read once drained
  std::vector<std::thread> threads_;  ///< last: joined before the state above dies
};

}  // namespace eadt::exp
