#include "exp/service.hpp"

#include <algorithm>

#include "baselines/baselines.hpp"
#include "exp/scheduler.hpp"
#include "obs/obs.hpp"

namespace eadt::exp {

const char* to_string(JobPolicy policy) noexcept {
  switch (policy) {
    case JobPolicy::kDeadline: return "deadline";
    case JobPolicy::kGreen: return "green";
    case JobPolicy::kBalanced: return "balanced";
    case JobPolicy::kSla: return "sla";
    case JobPolicy::kEnergyBudget: return "energy-budget";
  }
  return "?";
}

BitsPerSecond probe_reference_rate(const testbeds::Testbed& testbed,
                                   const proto::SessionConfig& config) {
  const auto probe = testbed.make_dataset();
  proto::TransferSession session(
      testbed.env, probe,
      baselines::plan_promc(testbed.env, probe, testbed.default_max_channels), config);
  return session.run().avg_throughput();
}

TransferService::TransferService(testbeds::Testbed testbed, BitsPerSecond reference_rate,
                                 proto::SessionConfig config)
    : testbed_(std::move(testbed)), reference_rate_(reference_rate), config_(config) {
  if (reference_rate_ <= 0.0) reference_rate_ = probe_reference_rate(testbed_, config_);
}

JobOutcome TransferService::run_job(const TransferJob& job) const {
  // The job is the only tenant of its own schedule, starting at t = 0, so
  // its first leg is the engine's own run. The second slot is for a hedge
  // race's second leg. Unsupervised, the job gets one attempt and the
  // session's time guard is its watchdog: an abort is then a failure.
  SchedulerPolicy policy;
  policy.max_concurrent = 2;
  policy.max_queue_depth = 1;
  SupervisorPolicy single_shot;
  single_shot.max_attempts = 1;
  policy.supervision = supervisor_.value_or(single_shot);
  SupervisorPolicy& sup = policy.supervision;
  if (sup.attempt_deadline <= 0.0) sup.attempt_deadline = config_.max_sim_time;
  policy.paths = sup.paths;
  // A leg runs at most a tick past its deadline: the horizon never cuts a
  // job the watchdog would still retry.
  policy.horizon = (sup.max_attempts + 1) * (sup.attempt_deadline + config_.tick);
  Scheduler scheduler(testbed_, reference_rate_, std::move(policy), config_);
  scheduler.set_fault_plan(faults_);
  TenantOutcome t = std::move(scheduler.run({{job, 0.0}}).jobs.front());

  JobOutcome out;
  out.name = std::move(t.name);
  out.policy = t.policy;
  out.result = std::move(t.result);
  out.failed = t.failed;
  out.attempts = t.attempts;
  out.recovery = std::move(t.recovery);
  out.sla_met = t.sla_met;
  out.migrations = t.migrations;
  out.final_path = t.path;
  out.hedge_legs = t.hedge_legs;
  out.hedge_energy = t.hedge_energy;
  return out;
}

ServiceReport TransferService::run_queue(std::vector<TransferJob> jobs,
                                         QueueOrder order) {
  switch (order) {
    case QueueOrder::kFifo:
      break;
    case QueueOrder::kShortestFirst:
      std::stable_sort(jobs.begin(), jobs.end(),
                       [](const TransferJob& a, const TransferJob& b) {
                         return a.dataset.total_bytes() < b.dataset.total_bytes();
                       });
      break;
    case QueueOrder::kGreenFirst:
      std::stable_sort(jobs.begin(), jobs.end(),
                       [](const TransferJob& a, const TransferJob& b) {
                         const auto rank = [](JobPolicy p) {
                           return p == JobPolicy::kGreen ? 0 : 1;
                         };
                         return rank(a.policy) < rank(b.policy);
                       });
      break;
  }

  ServiceReport report;
  report.reference_rate = reference_rate_;
  Seconds clock = 0.0;
  double rate_fraction_sum = 0.0;
  int completed_jobs = 0;
  for (const auto& job : jobs) {
    JobOutcome out = run_job(job);
    out.queued_at = clock;
    clock += out.result.duration;
    out.finished_at = clock;
    if (tariff_) {
      out.cost_usd = tariff_->cost(out.result.end_system_energy,
                                   queue_start_time_ + out.queued_at,
                                   out.result.duration);
      report.total_cost_usd += out.cost_usd;
    }
    report.total_bytes += out.result.bytes;
    report.total_energy += out.result.end_system_energy;
    if (out.failed) {
      ++report.failed_jobs;
    } else if (reference_rate_ > 0.0) {
      rate_fraction_sum += out.result.avg_throughput() / reference_rate_;
      ++completed_jobs;
    }
    report.jobs.push_back(std::move(out));
  }
  report.makespan = clock;
  if (completed_jobs > 0) report.mean_rate_fraction = rate_fraction_sum / completed_jobs;
  if (config_.obs != nullptr && config_.obs->metrics != nullptr) {
    auto& m = *config_.obs->metrics;
    m.counter("service.jobs").add(report.jobs.size());
    m.counter("service.jobs_failed").add(static_cast<std::uint64_t>(report.failed_jobs));
    for (const auto& out : report.jobs) {
      if (out.policy == JobPolicy::kSla && !out.sla_met) {
        m.counter("service.sla_misses").add(1);
      }
      if (out.attempts > 1) m.counter("service.jobs_retried").add(1);
    }
    m.gauge("service.makespan_s").set_max(report.makespan);
  }
  return report;
}

}  // namespace eadt::exp
