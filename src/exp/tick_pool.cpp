#include "exp/tick_pool.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <utility>

namespace eadt::exp {

namespace {

/// One spin-loop iteration: tells the core this is a busy-wait, which frees
/// its sibling hyperthread and avoids the memory-order exit penalty.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Spin iterations between scheduler yields. With a CPU to itself a spinner's
/// yield returns at once; with more threads than CPUs it hands the CPU to the
/// thread the spinner is waiting for.
constexpr int kYieldEvery = 64;

/// Poll `ready` for up to TickPool::kSpinIterations iterations; true as soon
/// as it holds, false when the budget ran out first.
template <typename Ready>
bool spin_until(const Ready& ready) {
  for (int i = 1; i <= TickPool::kSpinIterations; ++i) {
    if (ready()) return true;
    cpu_relax();
    if (i % kYieldEvery == 0) std::this_thread::yield();
  }
  return ready();
}

/// The CPU the calling thread runs on, or -1 where that cannot be read.
int current_cpu() noexcept {
#if defined(__linux__)
  return sched_getcpu();
#else
  return -1;
#endif
}

/// Move the calling thread onto the CPU `step` places after `anchor` among
/// the CPUs it may run on (wrapping), then allow it all of them again. The
/// kernel does not always spread a process's threads: with load balancing
/// switched off, as in a cpuset with sched_load_balance = 0, every thread
/// stays on the CPU it was created on, and a pool of four shares one CPU.
/// Only the starting CPU is chosen here; where balancing is on, the kernel
/// may still move the thread later.
void spread_thread(int anchor, std::size_t step) noexcept {
#if defined(__linux__)
  cpu_set_t allowed;
  if (anchor < 0 || sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  const int n = CPU_COUNT(&allowed);
  if (n < 2) return;
  int target = anchor;
  for (std::size_t moved = 0; moved < step % static_cast<std::size_t>(n);) {
    target = (target + 1) % CPU_SETSIZE;
    if (CPU_ISSET(target, &allowed)) ++moved;
  }
  if (target == anchor && CPU_ISSET(anchor, &allowed)) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(target, &one);
  if (sched_setaffinity(0, sizeof(one), &one) == 0) {
    sched_setaffinity(0, sizeof(allowed), &allowed);
  }
#else
  (void)anchor;
  (void)step;
#endif
}

}  // namespace

TickPool::TickPool(int jobs) {
  const int extra = std::max(jobs, 1) - 1;
  ops_ = std::vector<std::atomic<std::uint64_t>>(static_cast<std::size_t>(extra) + 1);
  blocks_ = std::vector<Block>(static_cast<std::size_t>(extra) + 1);
  threads_.reserve(static_cast<std::size_t>(extra));
  // Worker w starts on the (w + 1)-th CPU after the caller's.
  const int caller_cpu = current_cpu();
  for (int w = 0; w < extra; ++w) {
    threads_.emplace_back([this, w, caller_cpu] {
      spread_thread(caller_cpu, static_cast<std::size_t>(w) + 1);
      worker_loop(static_cast<std::size_t>(w));
    });
  }
}

TickPool::~TickPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_.store(true, std::memory_order_release);
  }
  start_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void TickPool::worker_loop(std::size_t worker) {
  std::uint64_t seen = 0;  // the last generation this worker joined or missed
  for (;;) {
    const auto published = [&] {
      return stop_.load(std::memory_order_acquire) ||
             generation(phase_.load(std::memory_order_acquire)) != seen;
    };
    if (!spin_until(published)) {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, published);
    }
    if (stop_.load(std::memory_order_acquire)) return;
    std::uint64_t word = phase_.load(std::memory_order_acquire);
    seen = generation(word);
    bool joined = false;
    while (!joined && (word & kClosed) == 0 && generation(word) == seen) {
      joined = phase_.compare_exchange_weak(word, word + 1, std::memory_order_acq_rel,
                                            std::memory_order_acquire);
    }
    if (!joined) continue;  // closed before this worker got here: nothing to do
    drain(worker);
    const std::uint64_t before = phase_.fetch_sub(1, std::memory_order_acq_rel);
    if ((before & kClosed) != 0 && (before & kInside) == 1) {
      // Last one out of a closed phase. A caller that saw a worker inside
      // under the lock is already waiting by the time this lock is ours, so
      // the notify lands.
      { const std::lock_guard<std::mutex> lock(mutex_); }
      done_cv_.notify_one();
    }
  }
}

void TickPool::drain(std::size_t worker) noexcept {
  std::uint64_t executed = 0;
  const std::size_t n = blocks_.size();
  for (std::size_t k = 0; k < n; ++k) {
    // Own block first, then the others in turn.
    Block& block = blocks_[(worker + k) % n];
    while (block.next.load(std::memory_order_relaxed) < block.end) {
      const std::size_t i = block.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= block.end) break;
      ++executed;
      try {
        fn_(ctx_, i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (!first_error_) first_error_ = std::current_exception();
      }
    }
  }
  // One relaxed add per phase, not per index: occupancy accounting must stay
  // invisible next to the work it measures.
  if (executed > 0) ops_[worker].fetch_add(executed, std::memory_order_relaxed);
}

void TickPool::run(std::size_t count, void (*fn)(void*, std::size_t), void* ctx) {
  if (count == 0) return;
  if (threads_.empty() || count == 1) {
    // Inline path: index order, exceptions propagate directly. A count of 1
    // also skips the handshake — waking the pool for one index buys nothing.
    for (std::size_t i = 0; i < count; ++i) fn(ctx, i);
    ops_.back().fetch_add(count, std::memory_order_relaxed);
    return;
  }
  fn_ = fn;
  ctx_ = ctx;
  const std::size_t n = blocks_.size();
  for (std::size_t b = 0; b < n; ++b) {
    blocks_[b].next.store(b * count / n, std::memory_order_relaxed);
    blocks_[b].end = (b + 1) * count / n;
  }
  {
    // The previous phase ended closed and empty; open the next one.
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t next = generation(phase_.load(std::memory_order_relaxed)) + 1;
    phase_.store(next << 32, std::memory_order_release);
  }
  start_cv_.notify_all();  // no syscall unless a worker is parked
  drain(threads_.size());  // the calling thread is a worker too

  // The caller's drain swept every block, so every index is claimed. Close
  // the phase to latecomers and wait for the workers inside to finish.
  const auto drained = [&] {
    return (phase_.load(std::memory_order_acquire) & kInside) == 0;
  };
  if ((phase_.fetch_or(kClosed, std::memory_order_acq_rel) & kInside) != 0 &&
      !spin_until(drained)) {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, drained);
  }
  // Each joined worker's writes, first_error_ included, happen before its
  // leaving decrement, which drained() acquired: no worker touches the
  // phase any more.
  if (first_error_) std::rethrow_exception(std::exchange(first_error_, nullptr));
}

}  // namespace eadt::exp
