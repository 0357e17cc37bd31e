// Supervision vocabulary: watchdogs, checkpointed retries, a degradation
// ladder, and path failover.
//
// A job's operating point is not fixed at submission. Each attempt runs
// under a deadline watchdog; an aborted attempt leaves a TransferCheckpoint
// journal entry and is resumed from it (landed bytes are never re-paid);
// repeated aborts step the job down a degradation ladder — first halve
// `max_channels`, down to one, then a policy fallback to kGreen (MinE's
// single-channel-biased minimum-energy plan) — until the job completes or
// its retry budget is spent. exp::Scheduler runs this loop for every tenant,
// and exp::TransferService runs each job as the only tenant of its own
// schedule, so there is one supervision loop. Every decision is recorded in
// a RecoveryLog attached to the job's outcome, so a provider can audit
// exactly how a transfer survived (or why it did not).
//
// This mirrors the online re-tuning loops of the paper's SLA discussion and
// the GreenDataFlow-style re-optimisation under changing conditions: the
// operating point is not fixed at submission, it is revised whenever the
// observed conditions prove it untenable.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "exp/health.hpp"
#include "net/path_set.hpp"
#include "proto/session.hpp"
#include "util/units.hpp"

namespace eadt::obs {
class DecisionLog;
enum class DecisionKind;
}  // namespace eadt::obs

namespace eadt::exp {

enum class JobPolicy;      // service.hpp

/// One kind of supervision decision, as exp::Scheduler records it: the
/// watchdog ladder, the scheduler's own admission and capacity decisions,
/// and path failover, audited through one RecoveryLog so a tenant's history
/// reads as one ladder.
enum class RecoveryAction {
  kResume,          ///< a new attempt started from the last checkpoint
  kDeadlineAbort,   ///< the watchdog cut an attempt short; checkpoint taken
  kReduceChannels,  ///< ladder step: lower concurrency
  kPolicyFallback,  ///< ladder step: fall back to the kGreen operating point
  kGiveUp,          ///< retry budget spent (or unrecoverable error): job failed
  kPreempt,         ///< scheduler checkpointed a running job to free capacity
  kShed,            ///< admission control rejected the job outright
  kDefer,           ///< tariff-aware deferral moved the start off-peak
  kMigrate,         ///< failover: resumed on a healthier alternate path
  kHedge,           ///< deadline projection missed; tail ran on two paths at once
};

[[nodiscard]] const char* to_string(RecoveryAction action) noexcept;
/// The obs::DecisionKind a recovery action is mirrored as.
[[nodiscard]] obs::DecisionKind recovery_decision_kind(RecoveryAction action) noexcept;
/// The obs metrics counter a recovery action increments.
[[nodiscard]] const char* recovery_metric(RecoveryAction action) noexcept;

/// One audited supervision decision.
struct RecoveryEvent {
  /// Cumulative transfer seconds when the decision fell; a scheduler's
  /// shed and defer carry its schedule clock instead.
  Seconds at = 0.0;
  int attempt = 0;   ///< 1-based attempt the decision belongs to
  RecoveryAction action = RecoveryAction::kResume;
  std::string policy;    ///< operating-point policy name after the decision
  int max_channels = 0;  ///< operating-point channel cap after the decision
  std::string detail;    ///< human-readable reason
};

struct RecoveryLog {
  std::vector<RecoveryEvent> events;

  [[nodiscard]] int count(RecoveryAction action) const noexcept;
  /// True when the ladder stepped the job below its requested operating point.
  [[nodiscard]] bool degraded() const noexcept;
};

/// A ready-to-run operating point: the plan and (optional) controller a
/// JobPolicy maps to. Built by make_operating_point for every leg
/// exp::Scheduler dispatches, so a policy means one thing everywhere.
struct OperatingPoint {
  proto::TransferPlan plan;
  /// Null for the non-adaptive policies (kDeadline's ProMC, kGreen's MinE).
  std::unique_ptr<proto::Controller> controller;
};

/// Map a job policy to its algorithmic operating point at `max_channels`
/// (clamped to >= 1). `reference_rate`/`sla_percent` feed kSla's target,
/// `energy_budget` feeds kEnergyBudget; `decisions` (may be null) receives
/// the planning decisions exactly as in a scheduled run.
[[nodiscard]] OperatingPoint make_operating_point(
    const proto::Environment& env, const proto::Dataset& dataset, JobPolicy policy,
    int max_channels, double sla_percent, Joules energy_budget,
    BitsPerSecond reference_rate, obs::DecisionLog* decisions);

/// Knobs of the supervision loop (SchedulerPolicy::supervision; the argument
/// of TransferService::set_supervisor).
struct SupervisorPolicy {
  /// Watchdog: simulated seconds one attempt may run before it is aborted
  /// and checkpointed. 0 leaves a schedule only its horizon guard;
  /// TransferService reads 0 as the session's own max_sim_time.
  Seconds attempt_deadline = 0.0;
  int max_attempts = 4;  ///< total attempts (first run included)
  /// Aborts tolerated at one operating point before the ladder steps down:
  /// a step halves the channel cap (floored, never below one), and once the
  /// cap is one the last step falls back to kGreen.
  int degrade_after = 1;

  // --- Path resilience (appended so positional aggregate initializers of the
  // pre-resilience fields keep compiling).
  /// Alternate routes for this testbed's endpoint pair (index 0 = primary).
  /// TransferService copies this into its schedule's SchedulerPolicy. Set on
  /// SchedulerPolicy::supervision it does nothing: a Scheduler reads only
  /// SchedulerPolicy::paths.
  net::PathSet paths;
  /// Read by nothing (see HealthMonitorConfig); perfbench's failover
  /// workload still sets it.
  HealthMonitorConfig health;
  /// Finish deadline (absolute transfer seconds). When > 0, `hedge` is set,
  /// the schedule has alternates, and a watchdog abort's projected finish
  /// overshoots it, the tenant's next dispatch races the remaining tail on a
  /// second path from the same journal — at most once per tenant. The first
  /// leg to finish wins; the other is cancelled and its energy since the
  /// fork reported as TenantOutcome::hedge_energy.
  Seconds job_deadline = 0.0;
  bool hedge = false;
};

/// Fraction of an attempt's watchdog budget already burned: (now - started) /
/// deadline, clamped at >= 0. A value past 1 means the watchdog is due. Used
/// by the Scheduler's SLA burn-rate telemetry; returns 0 when no deadline is
/// set.
[[nodiscard]] inline double deadline_burn(Seconds started, Seconds now,
                                          Seconds deadline) noexcept {
  if (deadline <= 0.0) return 0.0;
  const double burn = (now - started) / deadline;
  return burn > 0.0 ? burn : 0.0;
}

/// `base` re-bound to one PathSet option: same endpoints, datasets, and power
/// models, but the option's link characteristics and device chain. The
/// returned environment is what a failed-over session runs against — its BDP
/// drives the re-planned channel allocation in make_operating_point.
[[nodiscard]] proto::Environment environment_for_path(const proto::Environment& base,
                                                      const net::PathOption& option);

}  // namespace eadt::exp
