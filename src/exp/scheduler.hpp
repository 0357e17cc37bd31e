// Multi-tenant admission control and overload resilience on one simulation.
//
// The TransferService runs jobs back to back: one DTN pair, one transfer at a
// time. A real provider runs many tenants at once — their sessions contend
// for the shared path — and must stay upright when the offered load exceeds
// what the site can carry. The Scheduler is that layer:
//
//   * several proto::TransferSessions co-exist on ONE sim::Simulation; every
//     master tick the scheduler collects each session's link demands and runs
//     one joint net::fair_share round (net::LinkArbiter) per path over the
//     tenants placed there, so channels of different tenants contend exactly
//     like channels of one session;
//   * one path table drives every schedule: an entry per
//     SchedulerPolicy::paths option, or a single entry — the testbed's own
//     environment under the site cap — when there are no alternates;
//   * admission control: the waiting queue is bounded; jobs past the bound
//     are shed (rejected) with honest accounting, never silently dropped;
//   * a site-wide power cap: a job is dispatched only when the sum of the
//     running sessions' provable peak draws plus its own fits under the cap,
//     so the measured power can never exceed the cap between ticks;
//   * SLA classes mapped from JobPolicy: interactive (kDeadline, kSla) may
//     preempt, standard (kBalanced, kEnergyBudget) queues, scavenger
//     (kGreen) is preemptible and tariff-deferrable;
//   * preemption reuses the checkpoint journal: a preempted scavenger is
//     checkpointed, finalized, and re-queued; it later *resumes* — landed
//     bytes are never re-paid (the journal a watchdog abort leaves too);
//   * per-tenant deadline watchdogs, the degradation ladder and the hedged
//     tail race (SchedulerPolicy::supervision) apply to every tenant. This
//     is the one supervision loop: TransferService::run_queue runs each job
//     as the only tenant of its own schedule;
//   * a tariff-aware deferral window shifts scavenger starts into the
//     cheapest price band when one is attached.
//
// Determinism: everything is driven by the shared Simulation clock —
// submissions are events, arbitration happens in admission order, and the
// report is bit-reproducible for a fixed (testbed, jobs, policy, faults).
// With a single tenant and no site events the tick pipeline degenerates to
// exactly the single-session engine (same operations, same order), which is
// what keeps the existing goldens byte-identical. A schedule without
// alternates is the one-entry case of the path table, so naming the
// testbed's own route as a one-option PathSet changes nothing in the report
// or the decision log; only the per-path health series (the
// `scheduler.path.<name>.phi` gauge, the `path.<name>.phi` trace track and
// telemetry `site_phi`) exist solely with alternates.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exp/service.hpp"
#include "exp/supervisor.hpp"
#include "net/fair_share.hpp"
#include "power/tariff.hpp"
#include "proto/faults.hpp"
#include "proto/session.hpp"
#include "sim/simulation.hpp"
#include "testbeds/testbeds.hpp"

namespace eadt::obs {
class Gauge;
class ObsCollector;
class TelemetryHub;
class TickFlightRecorder;
class TickProfiler;
}  // namespace eadt::obs

namespace eadt::exp {

class TickPool;

/// Per-tenant service class, mapped from the job's policy. The class decides
/// how a job behaves under pressure, not which algorithm it runs.
enum class SlaClass {
  kInteractive,  ///< kDeadline / kSla: latency promises; may trigger preemption
  kStandard,     ///< kBalanced / kEnergyBudget: queues, never preempts
  kScavenger,    ///< kGreen: preemptible, tariff-deferrable background work
};

[[nodiscard]] const char* to_string(SlaClass cls) noexcept;
[[nodiscard]] SlaClass sla_class_of(JobPolicy policy) noexcept;

/// One tenant submission: a service job plus its arrival on the shared
/// timeline (simulated seconds from the scheduler's start).
struct SchedulerJob {
  TransferJob job;
  Seconds submit_at = 0.0;
};

struct SchedulerPolicy {
  /// Running sessions allowed at once (the DTN slice count).
  int max_concurrent = 4;
  /// Waiting jobs held (deferred ones included); arrivals past this are shed.
  int max_queue_depth = 16;
  /// Site-wide cap on the summed end-system draw of running sessions, in
  /// watts. 0 = uncapped. Enforced against each session's provable peak at
  /// dispatch time, so the measured sum can never exceed it between ticks.
  Watts power_cap = 0.0;
  /// Per-attempt watchdogs, the degradation ladder and the hedged tail race
  /// (exp/supervisor.hpp). attempt_deadline 0 leaves only the horizon guard.
  /// Its `paths` and `health` do nothing here: alternates set there get no
  /// failover and no warning. Set `paths` below.
  SupervisorPolicy supervision;
  /// Longest a scavenger start may be shifted toward the tariff's cheapest
  /// band (simulated seconds). 0 disables deferral.
  Seconds max_defer = 0.0;
  /// Site-level capacity events (maintenance, cross-traffic storms) applied
  /// to the shared link on top of any per-session fault plan: every tenant
  /// sees them, which is what makes a brownout a property of the path.
  std::vector<proto::PathBrownoutEvent> link_brownouts;
  /// Hard stop for the whole schedule; jobs still running are failed.
  Seconds horizon = 7.0 * 24 * 3600;

  // --- Path resilience (appended so positional initializers of the fields
  // above keep compiling).
  /// Alternate site routes (index 0 = primary). Each tenant is placed at
  /// dispatch on the healthiest path with power headroom, each path runs its
  /// own joint fair-share round per master tick, and a tenant whose journal
  /// was taken on a now-suspect path resumes on a better one (counted as a
  /// migration, not a retry). Empty = one path, the testbed's own route:
  /// placement then has a single choice, and `path_power_caps`, per-path
  /// health series and brownouts aimed at a path index >= 1 have nothing to
  /// act on.
  net::PathSet paths;
  /// Per-path (per-site) power caps in watts, index-aligned with `paths`;
  /// a missing or zero entry falls back to `power_cap`. When `power_cap` is
  /// also set it additionally bounds the *sum* across all paths.
  std::vector<Watts> path_power_caps;

  // --- Tick parallelism (appended for the same positional-initializer
  // reason as the path fields above).
  /// Workers for the per-tenant phases of the master tick (exp::TickPool).
  /// <= 1 keeps the tick single-threaded. The report, traces and metrics are
  /// byte-identical at any value — the per-session phases run sharded, and
  /// every cross-tenant reduction commits serially in admission order
  /// (MODEL.md §16) — so `jobs` is purely a wall-clock knob. Callers wire
  /// exp::resolve_jobs() through here to honor --jobs / EADT_JOBS.
  int jobs = 1;
};

/// Per-class aggregate accounting.
struct SlaClassStats {
  int submitted = 0;
  int rejected = 0;
  int completed = 0;
  int failed = 0;
  int sla_met = 0;  ///< over completed jobs
};

/// One tenant's fate, in submission order.
struct TenantOutcome {
  std::string name;
  JobPolicy policy = JobPolicy::kBalanced;
  SlaClass sla_class = SlaClass::kStandard;
  Seconds submitted_at = 0.0;
  Seconds started_at = 0.0;    ///< first dispatch (0 if never started)
  Seconds finished_at = 0.0;   ///< completion / failure / rejection time
  bool rejected = false;       ///< shed at admission; never ran
  bool failed = false;
  bool sla_met = true;         ///< kSla: exp::meets_sla of the reference share
  /// Dispatches: resumes and a leg that refused to start included; a race
  /// is one.
  int attempts = 0;
  int preemptions = 0;
  int deferrals = 0;
  int migrations = 0;          ///< re-dispatches onto a different path than the journal's
  int path = 0;                ///< PathSet index of the final placement (0 = primary)
  int hedge_legs = 0;          ///< legs raced for the job deadline (0 or 2)
  /// Energy the cancelled leg of the race burned since the fork.
  Joules hedge_energy = 0.0;
  /// Cumulative over all legs (a resumed session reports running totals);
  /// after a race, the winning leg's.
  proto::RunResult result;
  RecoveryLog recovery;        ///< every scheduler/ladder decision, in order
  double cost_usd = 0.0;       ///< 0 unless a tariff is attached

  [[nodiscard]] double throughput_mbps() const {
    return to_mbps(result.avg_throughput());
  }
};

struct SchedulerReport {
  std::vector<TenantOutcome> jobs;  ///< submission order
  int submitted = 0;
  int accepted = 0;   ///< submitted - rejected
  int rejected = 0;
  int completed = 0;
  int failed = 0;     ///< accepted jobs that never completed
  int preemptions = 0;
  int deferrals = 0;
  int migrations = 0;  ///< cross-path resumes, counted apart from retries
  Seconds makespan = 0.0;
  Bytes total_bytes = 0;
  Joules total_energy = 0.0;
  double total_cost_usd = 0.0;
  /// Highest summed per-tick end-system draw actually measured.
  Watts peak_power = 0.0;
  /// Highest summed *provable* peak of concurrently running sessions — the
  /// quantity the cap is enforced against; peak_power <= this <= power_cap.
  Watts peak_power_bound = 0.0;
  /// Ticks whose measured sum exceeded the cap. The dispatch rule makes this
  /// impossible; the fuzz battery asserts it stays 0.
  int power_cap_violations = 0;
  int max_concurrent_observed = 0;
  SlaClassStats interactive, standard, scavenger;

  /// accepted == submitted - rejected and completed + failed == accepted
  /// once the run has ended; the fuzz battery asserts this conservation.
  [[nodiscard]] bool accounting_consistent() const noexcept {
    return accepted == submitted - rejected && completed + failed == accepted;
  }
};

/// Canonical text dump of everything deterministic in a SchedulerReport:
/// per-job outcomes with hex-float doubles (bit-exact, locale-independent),
/// every sample window, every recovery event, and the aggregate books. Two
/// runs agree iff their payloads are byte-identical — this is what the
/// parallel-tick determinism tests and bench/service_fleet's bitwise race
/// compare across worker counts.
[[nodiscard]] std::string scheduler_report_payload(const SchedulerReport& report);

/// Provable upper bound on one session's end-system draw: every server of
/// both endpoints at full component utilization, Eq. 2 evaluated at its
/// worst admissible core count. Monotone-safe: the measured per-tick power
/// of any session on this environment is <= this bound.
[[nodiscard]] Watts session_peak_power_bound(const proto::Environment& env);

class Scheduler {
 public:
  /// Takes the testbed by value (like TransferService): tenant sessions hold
  /// references into it for the scheduler's whole lifetime, so a caller-owned
  /// reference would make `Scheduler(make_testbed(), ...)` a dangling-read
  /// trap.
  Scheduler(testbeds::Testbed testbed, BitsPerSecond reference_rate,
            SchedulerPolicy policy, proto::SessionConfig base_config = {});
  ~Scheduler();  // out of line: Tenant is incomplete here

  /// Subject every tenant session to this failure workload. Event times are
  /// attempt-local: the plan is replayed on every leg.
  void set_fault_plan(proto::FaultPlan faults) { faults_ = std::move(faults); }

  /// Attach an electricity tariff; `start_time` is seconds since midnight at
  /// scheduler time 0. Enables scavenger deferral (SchedulerPolicy::max_defer)
  /// and per-job cost accounting.
  void set_tariff(power::Tariff tariff, Seconds start_time = 0.0) {
    tariff_ = std::move(tariff);
    tariff_start_ = start_time;
  }

  /// Per-tenant observability: tenant i publishes into
  /// `collector->slot(slot_base + i, job name)` (trace + decisions per slot,
  /// one shared metrics registry). Null detaches. A bench running several
  /// Scheduler scenarios against one collector must give each a
  /// non-overlapping slot_base — slots are single-writer. The collector must
  /// outlive run().
  void set_collector(obs::ObsCollector* collector, std::size_t slot_base = 0) noexcept {
    collector_ = collector;
    slot_base_ = slot_base;
  }

  /// Attach the deterministic sim-time sampler. Sampling happens in the
  /// serial commit section of the master tick and reads only deterministic
  /// scheduler state, so the hub's export is byte-identical at any `jobs`.
  /// The hub must outlive run(); null detaches. A hub constructed with
  /// stride 0 is treated as absent (the tick path never touches it).
  void set_telemetry(obs::TelemetryHub* hub) noexcept { telemetry_ = hub; }

  /// Attach the flight recorder: every active master tick is noted into its
  /// ring, and a watchdog abort, a measured site cap excursion, or a broken
  /// accounting invariant freezes the window into a dump. Must outlive
  /// run(); null detaches.
  void set_flight_recorder(obs::TickFlightRecorder* rec) noexcept { flightrec_ = rec; }

  /// Attach the wall-clock tick-pipeline profiler (per-phase latency
  /// histograms + tick-pool worker occupancy). Wall-clock only — never part
  /// of the deterministic output. Must outlive run(); null detaches.
  void set_tick_profiler(obs::TickProfiler* profiler) noexcept { profiler_ = profiler; }

  /// Run the whole schedule to quiescence (or the horizon). Deterministic;
  /// one call per Scheduler instance.
  [[nodiscard]] SchedulerReport run(std::vector<SchedulerJob> jobs);

  [[nodiscard]] BitsPerSecond reference_rate() const noexcept { return reference_rate_; }

 private:
  struct Tenant;

  void on_submit(Tenant& t);
  void enqueue(Tenant& t);
  void try_dispatch();
  [[nodiscard]] bool can_dispatch(const Tenant& t) const;
  void dispatch(Tenant& t);
  /// Build and begin `leg`'s session on its path for tenant `t`'s job at
  /// t's operating point, resuming from t's journal, and book it as running.
  /// Returns why the session refused to start instead.
  [[nodiscard]] std::optional<std::string> launch(Tenant& leg, const Tenant& t);
  /// Finalize a running leg at raw clock `end_raw` and release its slot and
  /// power books.
  proto::RunResult stop(Tenant& leg, bool completed, Seconds end_raw);
  /// Start t's hedge race: a second leg from t's journal on another path.
  void start_race(Tenant& t);
  /// End t's race by cancelling `loser` (either leg) at this tick.
  void end_race(Tenant& t, Tenant& loser);
  void preempt(Tenant& t);
  void abort_attempt(Tenant& t, Seconds end_raw);
  /// Complete the tenant whose leg `leg` finished this tick.
  void complete(Tenant& leg);
  /// Fail t; its give-up is stamped `at` on t's transfer clock.
  void fail(Tenant& t, std::string reason, Seconds at);
  void retire(Tenant& t);
  bool master_tick();
  void record(Tenant& t, RecoveryAction action, Seconds at, std::string detail);
  void decide(Tenant& t, obs::DecisionKind kind, Seconds at, std::string subject,
              std::string detail);
  [[nodiscard]] Seconds defer_delay(const Tenant& t) const;
  /// True when the schedule has alternates. Read only where a one-entry
  /// path table would differ from the single path it stands for: building
  /// the table, the per-site cap books (with one path they are the global
  /// books) and the per-path health series.
  [[nodiscard]] bool multipath() const noexcept { return !policy_.paths.empty(); }
  /// Healthiest path other than `exclude` with power headroom for one more
  /// session, or -1.
  [[nodiscard]] int pick_path(int exclude = -1) const;
  void release_capacity(const Tenant& t);
  /// The pool when this tick should fan out, else null (serial). Parallel
  /// mode needs enough tenants to amortize the dispatch handshake, and every
  /// session on its own obs slot (slots are single-writer; without a
  /// collector all tenants share base_config_.obs, and a hedge race's two
  /// legs share their tenant's slot, so the tick stays serial).
  [[nodiscard]] TickPool* tick_pool() const noexcept;
  /// Serial-commit telemetry hooks. sample_telemetry() fills the hub's
  /// scratch from deterministic state when a sample is due; flight_note()
  /// records this tick into the recorder's ring; emit_sched_tracks() writes
  /// the scheduler-level running/queued/shed counter tracks when they
  /// changed. All three are no-ops when their sink is absent.
  void sample_telemetry(Watts measured);
  void flight_note(Watts measured);
  void emit_sched_tracks();
  /// Publish the tick's measured power and per-path phi to the collector's
  /// gauges. Handles are resolved on the first call — the first tick with a
  /// running tenant — so a schedule in which nothing ever runs exports no
  /// 0-valued gauges, and later ticks neither allocate nor lock.
  void publish_tick_gauges(Watts measured);

  const testbeds::Testbed testbed_;
  BitsPerSecond reference_rate_ = 0.0;
  SchedulerPolicy policy_;
  proto::SessionConfig base_config_;
  proto::FaultPlan faults_;
  std::optional<power::Tariff> tariff_;
  Seconds tariff_start_ = 0.0;
  obs::ObsCollector* collector_ = nullptr;
  std::size_t slot_base_ = 0;
  obs::TelemetryHub* telemetry_ = nullptr;
  obs::TickFlightRecorder* flightrec_ = nullptr;
  obs::TickProfiler* profiler_ = nullptr;

  // --- run() state -------------------------------------------------------
  sim::Simulation sim_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::vector<Tenant*> queue_;    ///< waiting, in priority order
  std::vector<Tenant*> running_;  ///< dispatch order (preemption scans back)
  Watts running_peak_sum_ = 0.0;  ///< sum of running sessions' peak bounds (all paths)
  int unfinished_ = 0;            ///< tenants not yet terminal
  int deferred_ = 0;              ///< tenants parked in a tariff deferral
  int races_ = 0;                 ///< hedge races running
  std::uint64_t watchdog_aborts_ = 0;  ///< cumulative, fed to the flight ring
  SchedulerReport report_;

  // --- per-tick scratch (hoisted so a steady-state master tick performs no
  // heap allocations; scratch only — never carries state across ticks) ------
  /// What the serial round needs of one running tenant's tick, so that it
  /// reads no session. Indexed like running_; the prepare phase writes it
  /// from the worker running the tenant's chunk.
  struct TickStage {
    int path = 0;
    int streams = 0;              ///< aggregate_streams()
    double demand = 0.0;          ///< aggregate_demand()
    double path_factor = 1.0;
    /// Where the tenant's link demands start in its chunk's buffer; after
    /// the round, where its allocation starts in `slice`.
    std::uint32_t offset = 0;
    std::uint32_t count = 0;      ///< link demands (and allocations)
    std::uint32_t slice = 0;      ///< set by the round: the submission holding them
  };
  /// What the serial commit needs, written by the apply phase. Apart from
  /// TickStage so that the commit's pass reads 24 bytes a tenant.
  struct TickResult {
    Watts power = 0.0;
    Bytes bytes = 0;
    bool more = false;            ///< advance_commit(): not finished yet
  };
  /// One path-table entry's fair-share round. The arbiter keeps its slices
  /// valid until its next round, so the apply phase reads them in place.
  struct PathRound {
    net::LinkArbiter arbiter;
    double eff = 1.0;
    double burst_cap = 1.0;
  };
  std::vector<Tenant*> overdue_;        ///< watchdog sweep
  std::vector<Tenant*> finished_;       ///< tenants completing this tick
  std::vector<Watts> path_measured_;    ///< per-site power books
  std::vector<double> path_bytes_;      ///< health feed
  std::vector<TickStage> tick_stage_;   ///< indexed like running_
  std::vector<TickResult> tick_result_; ///< indexed like running_
  /// Link demands copied in the prepare phase, one buffer per pool chunk
  /// (a chunk's tenants run in order on one thread). Never shrunk, so each
  /// buffer keeps its capacity across ticks.
  std::vector<std::vector<net::Demand>> chunk_demands_;
  std::vector<PathRound> path_round_;   ///< indexed like the path table
  std::unique_ptr<TickPool> pool_;      ///< live while run() executes (jobs > 1)

  // --- path table: one entry per PathSet option, or one for the testbed's
  // own environment when there are no alternates ---------------------------
  std::vector<proto::Environment> path_envs_;  ///< stable: sessions hold refs
  std::vector<Watts> path_cap_;                ///< per-site cap (0 = uncapped)
  std::vector<Watts> path_session_peak_;       ///< per-path session bound
  std::vector<Watts> path_running_peak_;       ///< per-path running peak sums
  std::vector<double> path_link_factor_;       ///< per-path brownout factors
  std::vector<BitsPerSecond> path_capacity_;   ///< this tick's offered capacity
  std::vector<const char*> path_phi_track_;    ///< interned health-track names
  std::unique_ptr<HealthMonitor> health_;
  obs::ObsSinks* sched_sinks_ = nullptr;       ///< scheduler-level obs slot
  obs::Gauge* peak_power_gauge_ = nullptr;     ///< resolved by publish_tick_gauges
  std::vector<obs::Gauge*> path_phi_gauge_;    ///< alternates only

  // --- scheduler-level counter tracks (collector runs only) ---------------
  const char* sched_running_track_ = nullptr;
  const char* sched_queued_track_ = nullptr;
  const char* sched_shed_track_ = nullptr;
  int last_track_running_ = -1;  ///< change gates keep long traces bounded
  int last_track_queued_ = -1;
  int last_track_shed_ = -1;
};

}  // namespace eadt::exp
