// Parallel deterministic sweep execution.
//
// Every figure in the paper is a grid sweep — algorithm x testbed x
// concurrency — and the follow-up literature (GreenDataFlow's historical-log
// searches, frequency/core/concurrency grids) runs the same shape at scale.
// SweepRunner fans a declarative grid of such tasks across a thread pool
// while keeping the output *bit-identical* to a sequential run:
//
//   * each task is self-contained (its own Testbed copy, its own Simulation
//     inside the TransferSession) — workers share nothing mutable;
//   * stochastic elements are seeded from a stable hash of
//     (algorithm, testbed, concurrency, base seed), never from worker
//     identity, scheduling order or the wall clock;
//   * results are collected by task index, never by completion order.
//
// The contract pinned by tests/test_sweep_runner.cpp: `--jobs N` output is
// byte-identical to `--jobs 1` for every N.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "exp/runner.hpp"
#include "obs/metrics.hpp"

namespace eadt::obs {
class ObsCollector;
class TelemetryHub;
class TickFlightRecorder;
}  // namespace eadt::obs

namespace eadt::exp {

/// Stable seed for one grid point: FNV-1a over the identifying coordinates
/// plus an avalanche mix of `base_seed`. Pure function of its arguments —
/// independent of submission order, worker count, platform or process — and
/// collision-free in practice (tests/test_properties.cpp checks 10k-point
/// grids). Never returns 0, so the result is always usable as an Rng seed.
[[nodiscard]] std::uint64_t derive_task_seed(std::string_view algorithm,
                                             std::string_view testbed, int concurrency,
                                             std::uint64_t base_seed) noexcept;

/// Ceiling on worker threads: bench parsers refuse a larger --jobs, and
/// resolve_jobs clamps to it, so no pool asks the OS for more.
inline constexpr int kMaxJobs = 256;

/// Worker-count policy: `requested` > 0 wins; otherwise the EADT_JOBS
/// environment variable; otherwise hardware_concurrency. Always in
/// [1, kMaxJobs].
[[nodiscard]] int resolve_jobs(int requested) noexcept;

/// One grid point. Tasks own their inputs by value so a worker never touches
/// caller state; the dataset is built by the caller (once per testbed,
/// deterministically) and shared read-only across tasks.
struct SweepTask {
  enum class Kind { kRun, kSla };
  Kind kind = Kind::kRun;

  testbeds::Testbed testbed;
  proto::Dataset dataset;
  Algorithm algorithm = Algorithm::kSc;  ///< ignored for kSla (always SLAEE)
  int concurrency = 1;                   ///< user maxChannel budget
  proto::SessionConfig config{};
  proto::FaultPlan faults{};

  // kSla only:
  double target_percent = 0.0;
  BitsPerSecond max_throughput = 0.0;

  /// Base seed folded into derive_task_seed(). When non-zero the derived
  /// seed replaces env.jitter_seed (and, if the fault plan is active, its
  /// seed), decorrelating grid points by construction. 0 = run the testbed
  /// and fault plan exactly as configured (figure-parity mode).
  std::uint64_t seed = 0;

  /// Slot sentinel: "use this task's submission index as the obs slot".
  static constexpr std::size_t kAutoSlot = static_cast<std::size_t>(-1);

  /// Optional observability collector. When non-null, the worker acquires
  /// slot `obs_slot` (kAutoSlot = the task's submission index) and wires the
  /// slot's sinks into the session config, so traces/decisions land in a
  /// per-task buffer and metrics in the shared registry. Benches that call
  /// SweepRunner::run() more than once must assign explicit non-overlapping
  /// slots — indices restart at 0 on every run() call.
  obs::ObsCollector* obs = nullptr;
  std::size_t obs_slot = kAutoSlot;
};

/// The outcome of one task, back at its submission index.
struct SweepTaskResult {
  std::size_t index = 0;
  SweepTask::Kind kind = SweepTask::Kind::kRun;
  std::string testbed;      ///< env.name of the task's testbed
  std::uint64_t derived_seed = 0;
  RunOutcome run{};         ///< valid when kind == kRun
  SlaOutcome sla{};         ///< valid when kind == kSla
  double wall_ms = 0.0;     ///< wall-clock execution time (not deterministic)

  [[nodiscard]] const proto::RunResult& result() const noexcept {
    return kind == SweepTask::Kind::kRun ? run.result : sla.result;
  }
};

/// Canonical text dump of everything deterministic in the results (hex-float
/// doubles, wall times excluded). Two sweeps agree iff their payloads are
/// byte-identical — this is what the determinism tests and the CI golden
/// diff compare.
[[nodiscard]] std::string sweep_payload(const std::vector<SweepTaskResult>& results);

class SweepRunner {
 public:
  /// `jobs` <= 0 defers to resolve_jobs() (EADT_JOBS, then hardware).
  explicit SweepRunner(int jobs = 0) : jobs_(resolve_jobs(jobs)) {}

  [[nodiscard]] int jobs() const noexcept { return jobs_; }

  /// Execute the grid. Results are indexed 1:1 with `tasks`; with jobs() == 1
  /// execution is inline on the calling thread (no pool), and any worker
  /// exception is rethrown here after the pool drains.
  [[nodiscard]] std::vector<SweepTaskResult> run(const std::vector<SweepTask>& tasks) const;

  /// The deterministic fan-out primitive run() is built on, for sweeps whose
  /// cells are not plain algorithm runs (supervisor grids, service queues):
  /// calls `fn(i)` for every i in [0, count) across `jobs` workers. `fn`
  /// must write its result into a caller-owned slot addressed by i only.
  static void parallel_indexed(int jobs, std::size_t count,
                               const std::function<void(std::size_t)>& fn);

 private:
  int jobs_ = 1;
};

// --- perf records ----------------------------------------------------------

/// One microbenchmark series inside a BenchRecord: `ops` operations timed at
/// `wall_ms`. `baseline_ops_per_sec` is non-zero when the series was raced
/// against a reference implementation (e.g. the event queue vs a std::map
/// queue), in which case `speedup` = ops_per_sec / baseline_ops_per_sec.
/// Everything here is wall-clock derived, i.e. the non-deterministic side of
/// the schema — the perf trajectory, not a correctness payload.
struct MicroSample {
  std::string name;       ///< e.g. "event_queue_sched_fire_cancel"
  std::uint64_t ops = 0;  ///< operations performed
  double wall_ms = 0.0;
  double ops_per_sec = 0.0;
  double baseline_ops_per_sec = 0.0;  ///< 0 when the series has no baseline
  double speedup = 0.0;               ///< 0 when the series has no baseline
};

/// One multi-tenant scheduler scenario's deterministic outcome, as recorded
/// by bench/service_multitenant: the admission/preemption/power accounting an
/// exp::SchedulerReport aggregates, flattened for the JSON record. Everything
/// except `wall_ms` is bit-reproducible for a fixed scenario.
struct ServiceScenarioRecord {
  std::string name;  ///< scenario label, e.g. "overload_ramp"
  int submitted = 0;
  int accepted = 0;
  int rejected = 0;
  int completed = 0;
  int failed = 0;
  int preemptions = 0;
  int deferrals = 0;
  int max_concurrent = 0;          ///< highest simultaneous running sessions
  int power_cap_violations = 0;    ///< must stay 0 under any cap
  int sla_interactive_met = 0;     ///< over completed interactive jobs
  int sla_interactive_completed = 0;
  double makespan_s = 0.0;
  std::uint64_t bytes = 0;
  double energy_j = 0.0;
  double cost_usd = 0.0;
  double peak_power_w = 0.0;       ///< measured per-tick maximum
  double peak_power_bound_w = 0.0; ///< provable bound the cap gates on
  double power_cap_w = 0.0;        ///< 0 = scenario ran uncapped
  double wall_ms = 0.0;            ///< non-deterministic; stripped in CI diffs
};

/// One path-resilience scenario's deterministic outcome, as recorded by
/// bench/robustness_failover: migration/hedging accounting on top of the
/// byte/energy conservation every scenario asserts. Everything except
/// `wall_ms` is bit-reproducible for a fixed scenario.
struct FailoverScenarioRecord {
  std::string name;  ///< scenario label, e.g. "path_outage"
  int jobs = 0;                 ///< jobs run in the scenario
  int completed = 0;
  int failed = 0;
  int attempts = 0;             ///< legs across all jobs (first runs included)
  int migrations = 0;           ///< cross-path resumes; <= attempts always
  int hedge_legs = 0;           ///< raced tail legs (0 or 2 per hedged job)
  int power_cap_violations = 0; ///< must stay 0 under any per-site cap
  double makespan_s = 0.0;
  std::uint64_t bytes = 0;      ///< wire bytes landed across all legs
  double energy_j = 0.0;
  double hedge_energy_j = 0.0;  ///< losing legs' double-spend; >= 0 always
  double wall_ms = 0.0;         ///< non-deterministic; stripped in CI diffs
};

/// One bench invocation's machine-readable perf record: the grid, each
/// task's deterministic result payload and simulation counters, and the
/// (non-deterministic) wall times. Serialized to BENCH_<name>.json by the
/// bench binaries — the repo's perf-trajectory file. The `micro` section is
/// emitted only when non-empty, so sweep records (and their goldens) are
/// unchanged by its existence.
struct BenchRecord {
  std::string name;          ///< bench binary stem, e.g. "fig2_xsede"
  std::string commit;        ///< git commit stamp (EADT_COMMIT overrides)
  int jobs = 1;
  unsigned scale = 1;
  double total_wall_ms = 0.0;
  std::vector<SweepTaskResult> tasks;
  std::vector<MicroSample> micro;  ///< core_micro's series (empty for sweeps)
  /// Merged MetricsRegistry snapshot when the bench ran with observability
  /// attached. Like `micro`, the section is emitted only when non-empty, so
  /// records (and their goldens) from unobserved runs are unchanged.
  std::vector<obs::MetricSnapshot> metrics;
  /// Multi-tenant scheduler scenarios (service_multitenant only). Emitted
  /// only when non-empty, like `micro` — schema-additive.
  std::vector<ServiceScenarioRecord> service;
  /// Path-resilience scenarios (robustness_failover only). Emitted only when
  /// non-empty, like `micro` — schema-additive.
  std::vector<FailoverScenarioRecord> failover;
  /// Deterministic sim-time series from a telemetry-enabled run, rendered as
  /// the nested `eadt-telemetry-v1` object. Borrowed for the duration of
  /// write_bench_json; emitted only when non-null — schema-additive like the
  /// sections above. Byte-identical at any --jobs N (the fleet bench races
  /// this bitwise).
  const obs::TelemetryHub* telemetry = nullptr;
  /// Flight-recorder dumps (`eadt-flightrec-v1`), emitted only when the
  /// recorder was attached AND actually triggered — a clean run's record is
  /// unchanged by carrying a recorder.
  const obs::TickFlightRecorder* flightrec = nullptr;
};

/// The commit stamp recorded in BenchRecords: $EADT_COMMIT if set, else the
/// compile-time stamp (-DEADT_GIT_COMMIT), else "unknown".
[[nodiscard]] std::string bench_commit_stamp();

/// Serialize as schema "eadt-bench-v1" JSON (schema documented in
/// results/README.md). Doubles are printed with max_digits10 precision, so
/// equal values serialize identically; only wall_ms/commit fields vary
/// between runs of the same grid.
void write_bench_json(std::ostream& os, const BenchRecord& record);

}  // namespace eadt::exp
