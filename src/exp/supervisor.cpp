#include "exp/supervisor.hpp"

#include <algorithm>

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

proto::Environment environment_for_path(const proto::Environment& base,
                                        const net::PathOption& option) {
  proto::Environment env = base;
  env.path = option.path;
  env.route = option.route;
  env.name = base.name + " via " + option.name;
  return env;
}

}  // namespace eadt::exp
