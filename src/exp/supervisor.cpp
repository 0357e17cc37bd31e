#include "exp/supervisor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "baselines/baselines.hpp"
#include "core/algorithms.hpp"
#include "core/energy_budget.hpp"
#include "exp/service.hpp"
#include "obs/obs.hpp"

namespace eadt::exp {

obs::DecisionKind recovery_decision_kind(RecoveryAction action) noexcept {
  switch (action) {
    case RecoveryAction::kResume: return obs::DecisionKind::kSupervisorRetry;
    case RecoveryAction::kDeadlineAbort: return obs::DecisionKind::kSupervisorAbort;
    case RecoveryAction::kReduceChannels:
    case RecoveryAction::kPolicyFallback: return obs::DecisionKind::kSupervisorDegrade;
    case RecoveryAction::kGiveUp: return obs::DecisionKind::kSupervisorGiveUp;
    case RecoveryAction::kPreempt: return obs::DecisionKind::kSchedulerPreempt;
    case RecoveryAction::kShed: return obs::DecisionKind::kSchedulerShed;
    case RecoveryAction::kDefer: return obs::DecisionKind::kSchedulerDefer;
    case RecoveryAction::kMigrate: return obs::DecisionKind::kPathFailover;
    case RecoveryAction::kHedge: return obs::DecisionKind::kHedgeLaunch;
  }
  return obs::DecisionKind::kSupervisorGiveUp;
}

const char* recovery_metric(RecoveryAction action) noexcept {
  switch (action) {
    case RecoveryAction::kResume: return "supervisor.resumes";
    case RecoveryAction::kDeadlineAbort: return "supervisor.deadline_aborts";
    case RecoveryAction::kReduceChannels: return "supervisor.channel_reductions";
    case RecoveryAction::kPolicyFallback: return "supervisor.policy_fallbacks";
    case RecoveryAction::kGiveUp: return "supervisor.give_ups";
    case RecoveryAction::kPreempt: return "scheduler.preemptions";
    case RecoveryAction::kShed: return "scheduler.shed_jobs";
    case RecoveryAction::kDefer: return "scheduler.deferrals";
    case RecoveryAction::kMigrate: return "supervisor.migrations";
    case RecoveryAction::kHedge: return "supervisor.hedges";
  }
  return "supervisor.unknown";
}

const char* to_string(RecoveryAction action) noexcept {
  switch (action) {
    case RecoveryAction::kResume: return "resume";
    case RecoveryAction::kDeadlineAbort: return "deadline-abort";
    case RecoveryAction::kReduceChannels: return "reduce-channels";
    case RecoveryAction::kPolicyFallback: return "policy-fallback";
    case RecoveryAction::kGiveUp: return "give-up";
    case RecoveryAction::kPreempt: return "preempt";
    case RecoveryAction::kShed: return "shed";
    case RecoveryAction::kDefer: return "defer";
    case RecoveryAction::kMigrate: return "migrate";
    case RecoveryAction::kHedge: return "hedge";
  }
  return "?";
}

int RecoveryLog::count(RecoveryAction action) const noexcept {
  int n = 0;
  for (const auto& e : events) n += e.action == action ? 1 : 0;
  return n;
}

bool RecoveryLog::degraded() const noexcept {
  return count(RecoveryAction::kReduceChannels) > 0 ||
         count(RecoveryAction::kPolicyFallback) > 0;
}

OperatingPoint make_operating_point(const proto::Environment& env,
                                    const proto::Dataset& dataset, JobPolicy policy,
                                    int max_channels, double sla_percent,
                                    Joules energy_budget, BitsPerSecond reference_rate,
                                    obs::DecisionLog* decisions) {
  OperatingPoint op;
  const int cc = std::max(1, max_channels);
  switch (policy) {
    case JobPolicy::kDeadline:
      op.plan = baselines::plan_promc(env, dataset, cc);
      break;
    case JobPolicy::kGreen:
      op.plan = core::plan_min_energy(env, dataset, cc, decisions);
      break;
    case JobPolicy::kBalanced:
      op.plan = core::plan_htee(env, dataset, cc, decisions);
      op.controller = std::make_unique<core::HteeController>(cc);
      break;
    case JobPolicy::kSla: {
      const BitsPerSecond target = reference_rate * sla_percent / 100.0;
      op.plan = core::plan_slaee(env, dataset, cc, decisions);
      op.controller = std::make_unique<core::SlaeeController>(target, cc);
      break;
    }
    case JobPolicy::kEnergyBudget:
      op.plan = baselines::plan_promc(env, dataset, cc);
      op.controller = std::make_unique<core::EnergyBudgetController>(energy_budget, cc);
      break;
  }
  return op;
}

std::optional<RecoveryAction> LadderState::on_abort(const SupervisorPolicy& p) {
  ++aborts_at_point;
  if (aborts_at_point < p.degrade_after) return std::nullopt;
  if (channels > p.min_channels) {
    const int next = std::max(p.min_channels,
                              static_cast<int>(std::floor(channels * p.channel_step)));
    channels = next < channels ? next : channels - 1;
    aborts_at_point = 0;
    return RecoveryAction::kReduceChannels;
  }
  if (p.policy_fallback && policy != JobPolicy::kGreen) {
    policy = JobPolicy::kGreen;
    aborts_at_point = 0;
    return RecoveryAction::kPolicyFallback;
  }
  return std::nullopt;
}

proto::Environment environment_for_path(const proto::Environment& base,
                                        const net::PathOption& option) {
  proto::Environment env = base;
  env.path = option.path;
  env.route = option.route;
  env.name = base.name + " via " + option.name;
  return env;
}

Supervisor::Supervisor(const testbeds::Testbed& testbed, BitsPerSecond reference_rate,
                       proto::FaultPlan faults, SupervisorPolicy policy,
                       proto::SessionConfig base_config)
    : testbed_(testbed), reference_rate_(reference_rate), faults_(std::move(faults)),
      policy_(policy), base_config_(base_config) {}

proto::RunResult Supervisor::attempt(const TransferJob& job, JobPolicy policy,
                                     int max_channels,
                                     const proto::SessionConfig& config,
                                     const proto::TransferCheckpoint* resume,
                                     const proto::Environment& env, int path_id) const {
  obs::DecisionLog* decisions = config.obs != nullptr ? config.obs->decisions : nullptr;
  // Re-planning against `env` is what adapts a failed-over leg to its new
  // path: the tuner sees the alternate's BDP and buffer, not the primary's.
  OperatingPoint op =
      make_operating_point(env, job.dataset, policy, max_channels,
                           job.sla_percent, job.energy_budget, reference_rate_, decisions);
  proto::SessionConfig cfg = config;
  cfg.path_id = path_id;
  proto::TransferSession s(env, job.dataset, std::move(op.plan), cfg);
  s.set_fault_plan(policy_.paths.empty() ? faults_ : faults_.for_path(path_id));
  if (resume != nullptr) {
    std::string err;
    if (!s.resume_from(*resume, &err)) {
      proto::RunResult refused;
      refused.error = "resume failed: " + err;
      return refused;
    }
  }
  return s.run(op.controller.get());
}

JobOutcome Supervisor::run(const TransferJob& job) const {
  JobOutcome out;
  out.name = job.name;
  out.policy = job.policy;

  LadderState ladder{job.policy, std::max(1, job.max_channels)};
  std::optional<proto::TransferCheckpoint> journal;

  // Path-resilience state. With an empty PathSet everything below is inert:
  // env_for() always answers the testbed's own environment and no monitor
  // observation, migration, or hedge branch is ever taken.
  const bool multipath = !policy_.paths.empty();
  std::vector<proto::Environment> path_envs;
  if (multipath) {
    path_envs.reserve(static_cast<std::size_t>(policy_.paths.size()));
    for (const auto& opt : policy_.paths.options()) {
      path_envs.push_back(environment_for_path(testbed_.env, opt));
    }
  }
  HealthMonitor monitor(multipath ? policy_.paths.size() : 0, policy_.health);
  int current_path = 0;
  const auto env_for = [&](int p) -> const proto::Environment& {
    return multipath ? path_envs[static_cast<std::size_t>(p)] : testbed_.env;
  };
  const auto path_name = [&](int p) -> const std::string& {
    return policy_.paths.option(p).name;
  };
  // FaultStats accumulate across resumed legs (the checkpoint carries them),
  // so the monitor is fed per-attempt deltas, not running totals.
  std::int64_t seen_fault_events = 0;
  const auto feed_monitor = [&](int p, const proto::RunResult& r) {
    if (!multipath) return;
    const BitsPerSecond expect = env_for(p).path.available_bandwidth();
    for (const auto& smp : r.samples) {
      const double frac = expect > 0.0 ? smp.throughput() / expect : 1.0;
      monitor.observe_goodput(p, smp.window_end, frac);
    }
    const std::int64_t events =
        r.faults.channel_drops + r.faults.server_outages + r.faults.checksum_failures;
    if (events > seen_fault_events) {
      monitor.observe_fault(p, r.duration,
                            static_cast<double>(events - seen_fault_events));
    }
    seen_fault_events = std::max(seen_fault_events, events);
  };
  bool hedged = false;      ///< at most one hedge race per job
  bool hedge_next = false;  ///< next loop iteration races the tail on two paths
  int hedge_secondary = -1;

  obs::ObsSinks* obs = base_config_.obs;
  const auto log = [&](RecoveryAction action, int attempt_no, Seconds at,
                       std::string detail) {
    out.recovery.events.push_back(
        {at, attempt_no, action, to_string(ladder.policy), ladder.channels, detail});
    // Mirror every audited supervision decision into the observability layer,
    // so traces and RecoveryLog never disagree about what the ladder did.
    if (obs == nullptr) return;
    if (obs->metrics != nullptr) obs->metrics->counter(recovery_metric(action)).add(1);
    if (obs->decisions != nullptr) {
      obs::Decision d;
      d.at = at;
      d.kind = recovery_decision_kind(action);
      d.actor = "Supervisor";
      d.level = ladder.channels;
      d.chosen = ladder.channels;
      d.subject = std::string(to_string(action)) + " (attempt " +
                  std::to_string(attempt_no) + ", " + to_string(ladder.policy) + ")";
      d.detail = std::move(detail);
      obs->decisions->record(std::move(d));
    }
  };

  for (int attempt_no = 1;; ++attempt_no) {
    out.attempts = attempt_no;
    proto::SessionConfig config = base_config_;
    if (policy_.attempt_deadline > 0.0) config.max_sim_time = policy_.attempt_deadline;
    const Seconds attempt_start = journal ? journal->taken_at : 0.0;
    if (obs != nullptr && obs->metrics != nullptr) {
      obs->metrics->counter("supervisor.attempts").add(1);
    }
    if (obs != nullptr && obs->trace != nullptr) {
      // Opened before the session's own transfer span so the two nest
      // attempt > transfer on the control track.
      obs->trace->begin(attempt_start, obs::kControlTid,
                        obs->trace->intern("supervisor attempt " +
                                           std::to_string(attempt_no) + " (" +
                                           to_string(ladder.policy) + ")"),
                        "supervisor",
                        {"channels", static_cast<double>(ladder.channels)},
                        {"attempt", static_cast<double>(attempt_no)});
    }
    if (hedge_next) {
      // Race the remaining tail from the same journal entry on the current
      // path and the hedge secondary. Both legs resume from identical state,
      // so landed bytes are never re-paid on either; the losing leg is
      // "cancelled" at the winner's finish and only the energy it burned
      // until then is charged, as hedge double-spend.
      hedge_next = false;
      hedged = true;
      proto::RunResult primary_leg =
          attempt(job, ladder.policy, ladder.channels, config, &*journal,
                  env_for(current_path), current_path);
      proto::RunResult secondary_leg =
          attempt(job, ladder.policy, ladder.channels, config, &*journal,
                  env_for(hedge_secondary), hedge_secondary);
      feed_monitor(current_path, primary_leg);
      const bool secondary_wins =
          (secondary_leg.completed && !primary_leg.completed) ||
          (secondary_leg.completed == primary_leg.completed &&
           secondary_leg.duration < primary_leg.duration);
      const proto::RunResult& loser = secondary_wins ? primary_leg : secondary_leg;
      const proto::RunResult& winner = secondary_wins ? secondary_leg : primary_leg;
      // The loser burned energy from the hedge fork until the winner crossed
      // the line; sum its sample windows up to that instant (sample times are
      // absolute, so they compare directly against the winner's duration).
      Joules double_spend = 0.0;
      for (const auto& smp : loser.samples) {
        if (smp.window_end <= winner.duration) {
          double_spend += smp.end_system_energy;
        } else if (smp.window_start < winner.duration && smp.duration() > 0.0) {
          double_spend += smp.end_system_energy *
                          (winner.duration - smp.window_start) / smp.duration();
        }
      }
      out.hedge_legs += 2;
      out.hedge_energy += double_spend;
      const int winner_path = secondary_wins ? hedge_secondary : current_path;
      if (obs != nullptr && obs->decisions != nullptr) {
        obs::Decision d;
        d.at = winner.duration;
        d.kind = obs::DecisionKind::kHedgeWin;
        d.actor = "Supervisor";
        d.subject = "hedge won by '" + path_name(winner_path) + "'";
        d.detail = "loser cancelled at " + std::to_string(winner.duration) +
                   " s after " + std::to_string(double_spend) + " J double-spend";
        obs->decisions->record(std::move(d));
      }
      current_path = winner_path;
      out.result = secondary_wins ? std::move(secondary_leg) : std::move(primary_leg);
    } else {
      out.result = attempt(job, ladder.policy, ladder.channels, config,
                           journal ? &*journal : nullptr, env_for(current_path),
                           current_path);
      feed_monitor(current_path, out.result);
    }
    if (obs != nullptr && obs->trace != nullptr) {
      obs->trace->end(std::max(attempt_start, out.result.duration), obs::kControlTid);
    }

    if (!out.result.error.empty()) {
      out.failed = true;
      log(RecoveryAction::kGiveUp, attempt_no, out.result.duration, out.result.error);
      break;
    }
    if (out.result.completed) {
      if (obs != nullptr && obs->decisions != nullptr) {
        obs::Decision d;
        d.at = out.result.duration;
        d.kind = obs::DecisionKind::kSupervisorDone;
        d.actor = "Supervisor";
        d.level = ladder.channels;
        d.chosen = ladder.channels;
        d.subject = "job completed (attempt " + std::to_string(attempt_no) + ")";
        d.detail = std::string("finished under the ") + to_string(ladder.policy) +
                   " policy at " + std::to_string(ladder.channels) + " channels";
        obs->decisions->record(std::move(d));
      }
      break;
    }

    log(RecoveryAction::kDeadlineAbort, attempt_no, out.result.duration,
        "attempt hit its " + std::to_string(config.max_sim_time) +
            " s deadline; checkpoint taken");
    if (attempt_no >= policy_.max_attempts) {
      out.failed = true;
      log(RecoveryAction::kGiveUp, attempt_no, out.result.duration,
          "retry budget (" + std::to_string(policy_.max_attempts) + " attempts) spent");
      break;
    }
    if (!out.result.checkpoint) {
      // Unreachable with the current engine (an aborted run always carries
      // its journal entry), but a supervisor must not retry blind.
      out.failed = true;
      log(RecoveryAction::kGiveUp, attempt_no, out.result.duration,
          "aborted run left no checkpoint");
      break;
    }
    journal = out.result.checkpoint;

    if (const auto step = ladder.on_abort(policy_)) {
      log(*step, attempt_no, out.result.duration,
          *step == RecoveryAction::kReduceChannels
              ? "stepping down to " + std::to_string(ladder.channels) + " channels"
              : "channel floor reached; falling back to the minimum-energy plan");
    }

    // Failover rungs, above the ladder: hedge the tail when an interactive
    // deadline is projected to slip, otherwise migrate off a suspect path.
    if (policy_.hedge && policy_.job_deadline > 0.0 && multipath && !hedged) {
      const Bytes remaining =
          job.dataset.total_bytes() - journal->delivered_bytes(job.dataset);
      const BitsPerSecond recent = out.result.avg_goodput();
      const Seconds projected =
          recent > 0.0 ? journal->taken_at + to_bits(remaining) / recent
                       : std::numeric_limits<Seconds>::infinity();
      const int secondary = monitor.healthiest(current_path);
      if (projected > policy_.job_deadline && secondary >= 0 &&
          secondary != current_path) {
        hedge_next = true;
        hedge_secondary = secondary;
        log(RecoveryAction::kHedge, attempt_no + 1, journal->taken_at,
            "projected finish " + std::to_string(projected) + " s > deadline " +
                std::to_string(policy_.job_deadline) + " s; racing the tail on '" +
                path_name(current_path) + "' and '" + path_name(secondary) + "'");
      }
    }
    if (multipath && !hedge_next && monitor.suspect(current_path)) {
      if (obs != nullptr && obs->decisions != nullptr) {
        obs::Decision d;
        d.at = out.result.duration;
        d.kind = obs::DecisionKind::kPathSuspect;
        d.actor = "Supervisor";
        d.subject = "path '" + path_name(current_path) + "' suspect";
        d.detail = "phi " + std::to_string(monitor.phi(current_path)) +
                   " crossed the suspicion threshold " +
                   std::to_string(policy_.health.suspect_phi);
        obs->decisions->record(std::move(d));
      }
      const int next_path = monitor.healthiest(current_path);
      if (next_path >= 0 && monitor.phi(next_path) < monitor.phi(current_path)) {
        log(RecoveryAction::kMigrate, attempt_no + 1, journal->taken_at,
            "path '" + path_name(current_path) + "' phi " +
                std::to_string(monitor.phi(current_path)) + "; migrating to '" +
                path_name(next_path) + "' phi " +
                std::to_string(monitor.phi(next_path)) +
                " (landed bytes carry over via the journal)");
        current_path = next_path;
      }
    }
    log(RecoveryAction::kResume, attempt_no + 1, journal->taken_at,
        "resuming from the checkpoint journal (" +
            std::to_string(journal->completed.size()) + " files landed)");
  }

  out.migrations = out.recovery.count(RecoveryAction::kMigrate);
  out.final_path = current_path;

  if (job.policy == JobPolicy::kSla) {
    const BitsPerSecond target = reference_rate_ * job.sla_percent / 100.0;
    // Scored on the original promise even if the ladder fell back; an
    // incomplete transfer never met its SLA.
    out.sla_met = !out.failed && meets_sla(out.result.avg_throughput(), target);
  } else {
    out.sla_met = !out.failed;
  }
  return out;
}

}  // namespace eadt::exp
