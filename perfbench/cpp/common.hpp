// Shared pieces of the benchmark: clocks, seeds, order statistics, payload
// digests, the speed probe, and the measurement loop every workload runs
// through.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "exp/scheduler.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

class Tracer;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Offset added to every seed a workload derives (fleet seeds, dataset
/// seeds, fault seeds). Variant 0 gives offset 0, so it reproduces the
/// repository's own benches input for input; any other variant moves each
/// stream to a distinct, far-away seed.
[[nodiscard]] std::uint64_t seed_offset(std::uint64_t variant, std::uint64_t stream);

/// Order statistics over a sample (copied, so callers keep their order).
/// quantile() interpolates linearly between closest ranks; both return 0 on
/// an empty sample.
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// 64-bit FNV-1a, chainable: fnv1a(b, fnv1a(a)) digests a then b.
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = kFnvBasis);
[[nodiscard]] std::string hex64(std::uint64_t v);

/// Simulated session-ticks a scheduler report accounts for: every tenant's
/// cumulative leg duration in whole ticks. Deterministic for a fixed input.
[[nodiscard]] std::uint64_t session_ticks(const eadt::exp::SchedulerReport& report,
                                          double tick);

/// The check every scheduler scenario must pass: conservative admission
/// accounting and zero power-cap violations.
[[nodiscard]] bool scheduler_books_ok(const eadt::exp::SchedulerReport& report);

/// Totals a TickProfiler left in its registry over `passes` profiled passes,
/// per pass (microseconds per phase, master ticks profiled), and tick-pool
/// ops per worker.
struct ProfilerTotals {
  std::uint64_t ticks = 0;
  double prepare_us = 0.0;
  double arbiter_us = 0.0;
  double apply_us = 0.0;
  double commit_us = 0.0;
  std::vector<double> worker_ops;

  [[nodiscard]] double phases_us() const {
    return prepare_us + arbiter_us + apply_us + commit_us;
  }
};
[[nodiscard]] ProfilerTotals profiler_totals(const eadt::obs::MetricsRegistry& registry,
                                             int workers, int passes);

/// Per-layer scheduler metrics: the TickProfiler's phase totals, the
/// Scheduler::run span time outside them, and the reports' dispatch,
/// preemption, shed and migration counts.
void put_scheduler_metrics(const ProfilerTotals& prof, double run_span_s,
                           const std::vector<const eadt::exp::SchedulerReport*>& reports,
                           std::map<std::string, double>& m);

/// Adds one recovery log's checkpoints (preemptions and watchdog aborts both
/// write the journal) and resumes to proto.checkpoints / proto.resumes.
void add_recovery_metrics(const eadt::exp::RecoveryLog& log,
                          std::map<std::string, double>& m);

/// Machine-speed probe for the untraced runs.
///
/// On a shared host the same pass can run at half speed for minutes while
/// neighbours contend for caches and memory bandwidth. A fixed random
/// read-modify-write kernel over an 8 MiB and a 64 MiB buffer slows the same
/// way, so the untraced runs report times at reference speed: the raw wall
/// time scaled by kReferenceS / (the kernel's wall time next to it). The
/// buffers stay resident for the whole run.
class SpeedProbe {
 public:
  /// The kernel's wall time on an unloaded 4-core Xeon box (g++ 12, -O3).
  static constexpr double kReferenceS = 0.025;

  SpeedProbe();
  /// Run the kernel once; returns kReferenceS / its wall time (1 at
  /// reference speed, below 1 on a slowed machine) and records it.
  double read();
  /// Read the kernel again and return the factor for the work since the
  /// previous read: the mean of the readings on either side of it.
  double pass_factor();
  /// Resident size of the kernel's buffers, in MiB.
  [[nodiscard]] double resident_mb() const;

 private:
  std::vector<std::uint64_t> small_;
  std::vector<std::uint64_t> large_;
  std::vector<double> factors_;
};

/// Resident anonymous memory of the process (heap, stacks, the probe's
/// buffers), in MiB. File-backed pages, the code of the binary and its
/// libraries, are left out: the kernel maps them with huge pages in some runs
/// and not in others, a 2 MiB step on a 5 MiB workload.
[[nodiscard]] double resident_anon_mb();

/// Hands the allocator's free pages back to the kernel (glibc: every arena,
/// malloc_trim), so resident_anon_mb() right after counts live data. Freed
/// memory the tick workers' arenas keep resident otherwise swings a
/// fleet_1k reading by 9 MiB from run to run.
void release_free_heap();

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  int workers = 1;            ///< tick workers for the fleet's parallel run
  Tracer* tracer = nullptr;   ///< non-null only in the traced run
  SpeedProbe* probe = nullptr;  ///< non-null only in the untraced runs
};

/// What one workload run reports. `metrics` holds end-to-end metrics in an
/// untraced run and per-layer metrics in a traced one, by catalogue name.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Tenants shed by admission control: an accounted, designed outcome,
  /// reported apart from failures.
  std::uint64_t shed = 0;
  std::string digest;  ///< payload digest of each variant's first pass
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;  ///< human-readable lines for stdout
};

/// One pass of a workload over one variant's inputs.
struct Pass {
  double wall_s = 0.0;          ///< the timed region
  double serial_wall_s = 0.0;   ///< the same at one tick worker (0: wall_s)
  std::vector<double> task_ms;  ///< the workload's smallest timed units
  std::uint64_t ticks = 0;      ///< simulated session-ticks
  std::string payload;          ///< canonical output, compared across repeats
  bool ok = true;               ///< the workload's own correctness checks
  std::uint64_t attempted = 0;  ///< sweep tasks or submitted tenants
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
};

/// Runs the pass its inputs were built for, once. A traced pass (non-null
/// tracer) also attaches the workload's instruments.
using Runner = std::function<Pass(Tracer*)>;

/// A workload as the measurement loop sees it. Workload seed s gives the
/// variants s*K ... s*K + K - 1; a cycle runs each of them once.
struct Workload {
  int variants = 1;    ///< K
  int min_cycles = 2;
  /// Build variant v's inputs (set-up spans go to the tracer) and return
  /// the runner that consumes them.
  std::function<Runner(std::uint64_t variant, Tracer* tracer)> prepare;
};

/// The untraced run: whole cycles for opt.seconds, each one pass per
/// variant and then a timed batch of set-ups. Every pass is gated (Pass::ok,
/// and each payload byte-equal to the variant's first); fills every
/// end-to-end metric, with times scaled by the speed probe.
[[nodiscard]] Outcome measure(const RunOptions& opt, const Workload& w);

/// The traced run, on variant s*K: an untraced and a traced pass alternate
/// for opt.seconds (one of each at least), all gated. Sets
/// obs.trace_overhead and returns the number of traced passes, by which
/// per-layer totals are divided.
int trace_passes(const RunOptions& opt, const Workload& w, Outcome& out);

Outcome run_paper_sweep(const RunOptions& opt);
Outcome run_fleet(const RunOptions& opt);
Outcome run_service_mix(const RunOptions& opt);
Outcome run_failover(const RunOptions& opt);

}  // namespace perfbench
