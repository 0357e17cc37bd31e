// Supervision: deadline watchdogs, checkpointed retries, the degradation
// ladder, and honest failure accounting in the service report.
#include <gtest/gtest.h>

#include <utility>

#include "exp/service.hpp"
#include "exp/supervisor.hpp"
#include "testbeds/testbeds.hpp"

namespace eadt::exp {
namespace {

testbeds::Testbed tiny_xsede() { return testbeds::scaled(testbeds::xsede(), 64); }

proto::Dataset job_dataset(Bytes file, int count) {
  proto::Dataset ds;
  for (int i = 0; i < count; ++i) ds.files.push_back({file});
  return ds;
}

proto::SessionConfig fast_cfg() {
  proto::SessionConfig cfg;
  cfg.sample_interval = 1.0;
  return cfg;
}

/// `job` as a one-job TransferService queue under `policy` and `faults`.
JobOutcome supervise(const testbeds::Testbed& tb, proto::FaultPlan faults,
                     SupervisorPolicy policy, const TransferJob& job) {
  TransferService service(tb, gbps(7.0), fast_cfg());
  service.set_fault_plan(std::move(faults));
  service.set_supervisor(std::move(policy));
  return service.run_queue({job}).jobs.front();
}

TEST(Supervisor, RecoveryActionNames) {
  EXPECT_STREQ(to_string(RecoveryAction::kResume), "resume");
  EXPECT_STREQ(to_string(RecoveryAction::kDeadlineAbort), "deadline-abort");
  EXPECT_STREQ(to_string(RecoveryAction::kReduceChannels), "reduce-channels");
  EXPECT_STREQ(to_string(RecoveryAction::kPolicyFallback), "policy-fallback");
  EXPECT_STREQ(to_string(RecoveryAction::kGiveUp), "give-up");
}

TEST(Supervisor, CompletesInOneAttemptWhenNothingGoesWrong) {
  const auto t = tiny_xsede();
  SupervisorPolicy policy;
  policy.attempt_deadline = 30.0;  // generous: never trips
  const auto out =
      supervise(t, {}, policy, {"ok", job_dataset(100 * kMB, 8), JobPolicy::kDeadline, 0, 0, 8});

  EXPECT_FALSE(out.failed);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_TRUE(out.result.completed);
  EXPECT_TRUE(out.recovery.events.empty());
  EXPECT_FALSE(out.recovery.degraded());
}

TEST(Supervisor, DeadlineAbortsThenResumesToCompletion) {
  // The whole job needs ~2 s (per-file overheads are re-paid on the cold
  // channels of every leg); a 0.8 s watchdog forces several abort/resume
  // legs, each continuing from the journal instead of starting over.
  const auto t = tiny_xsede();
  const auto ds = job_dataset(100 * kMB, 16);
  const TransferJob job{"chunky", ds, JobPolicy::kDeadline, 0, 0, 8};
  SupervisorPolicy policy;
  policy.attempt_deadline = 0.8;
  policy.max_attempts = 16;
  policy.degrade_after = 100;  // keep the ladder out of this test
  const auto out = supervise(t, {}, policy, job);

  EXPECT_FALSE(out.failed);
  ASSERT_TRUE(out.result.completed);
  EXPECT_GE(out.attempts, 3);
  EXPECT_EQ(out.result.goodput_bytes(), ds.total_bytes());
  EXPECT_EQ(out.recovery.count(RecoveryAction::kDeadlineAbort), out.attempts - 1);
  EXPECT_EQ(out.recovery.count(RecoveryAction::kResume), out.attempts - 1);
  EXPECT_FALSE(out.recovery.degraded());
  // Legs chain on the absolute transfer clock: the finished run reports the
  // cumulative duration, not the last leg's slice, and the n-th abort falls
  // at n deadlines (no gap, no overlap).
  EXPECT_GT(out.result.duration, policy.attempt_deadline * (out.attempts - 1) - 1e-9);
  int aborts = 0;
  for (const auto& e : out.recovery.events) {
    if (e.action != RecoveryAction::kDeadlineAbort) continue;
    EXPECT_NEAR(e.at, ++aborts * policy.attempt_deadline, 1e-9);
  }
  // Each leg moves bytes only inside its own clock and re-pays its cold
  // start, so cutting the run into legs never shortens the time it reports.
  const auto whole = supervise(t, {}, SupervisorPolicy{}, job);
  ASSERT_TRUE(whole.result.completed);
  EXPECT_EQ(whole.attempts, 1);
  EXPECT_GE(out.result.duration, whole.result.duration);
}

TEST(Supervisor, LadderStepsDownChannelsThenFallsBackToGreen) {
  const auto t = tiny_xsede();
  const auto ds = job_dataset(100 * kMB, 24);  // ~2.4 GB: every rung aborts once
  SupervisorPolicy policy;
  policy.attempt_deadline = 1.0;
  policy.max_attempts = 40;
  policy.degrade_after = 1;
  const auto out = supervise(t, {}, policy, {"doomed-fast", ds, JobPolicy::kDeadline, 0, 0, 8});

  EXPECT_FALSE(out.failed);
  ASSERT_TRUE(out.result.completed);
  EXPECT_EQ(out.result.goodput_bytes(), ds.total_bytes());
  EXPECT_TRUE(out.recovery.degraded());
  // 8 -> 4 -> 2 -> 1 channels, then the policy rung.
  EXPECT_EQ(out.recovery.count(RecoveryAction::kReduceChannels), 3);
  EXPECT_EQ(out.recovery.count(RecoveryAction::kPolicyFallback), 1);
  // After the fallback every further decision ran at the green operating point.
  bool fell_back = false;
  for (const auto& e : out.recovery.events) {
    if (e.action == RecoveryAction::kPolicyFallback) fell_back = true;
    if (fell_back) {
      EXPECT_EQ(e.policy, "green");
      EXPECT_EQ(e.max_channels, 1);
    }
  }
}

TEST(Supervisor, GivesUpOnceTheRetryBudgetIsSpent) {
  const auto t = tiny_xsede();
  const auto ds = job_dataset(100 * kMB, 16);
  SupervisorPolicy policy;
  policy.attempt_deadline = 0.8;
  policy.max_attempts = 2;
  const auto out = supervise(t, {}, policy, {"hopeless", ds, JobPolicy::kDeadline, 0, 0, 8});

  EXPECT_TRUE(out.failed);
  EXPECT_FALSE(out.result.completed);
  EXPECT_FALSE(out.sla_met);
  EXPECT_EQ(out.attempts, 2);
  EXPECT_EQ(out.recovery.count(RecoveryAction::kGiveUp), 1);
  // Even a failed job keeps its journal: landed bytes are reported honestly.
  ASSERT_TRUE(out.result.checkpoint.has_value());
  EXPECT_GT(out.result.checkpoint->delivered_bytes(ds), 0u);
}

TEST(Supervisor, RunIsDeterministic) {
  const auto t = tiny_xsede();
  proto::FaultPlan faults;
  faults.stochastic.channel_drop_rate = 0.8;
  faults.seed = 21;
  SupervisorPolicy policy;
  policy.attempt_deadline = 0.5;
  policy.max_attempts = 20;
  const TransferJob job{"det", job_dataset(100 * kMB, 8), JobPolicy::kBalanced, 0, 0, 8};
  const auto a = supervise(t, faults, policy, job);
  const auto b = supervise(t, faults, policy, job);

  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.result.duration, b.result.duration);
  EXPECT_EQ(a.result.bytes, b.result.bytes);
  EXPECT_EQ(a.result.end_system_energy, b.result.end_system_energy);
  ASSERT_EQ(a.recovery.events.size(), b.recovery.events.size());
  for (std::size_t i = 0; i < a.recovery.events.size(); ++i) {
    EXPECT_EQ(a.recovery.events[i].action, b.recovery.events[i].action);
    EXPECT_EQ(a.recovery.events[i].at, b.recovery.events[i].at);
  }
}

TEST(SupervisedService, QueueUnderSevereFaultsFinishesEveryJob) {
  // The acceptance scenario: a queue under a severe failure workload, per-job
  // deadlines tighter than any fault-free run, still delivers every job via
  // supervised checkpoint-resume — with the recovery story in the report.
  const auto t = tiny_xsede();
  TransferService service(t, gbps(7.0), fast_cfg());
  proto::FaultPlan severe;
  severe.stochastic.channel_drop_rate = 1.0;
  severe.stochastic.checksum_failure_prob = 0.05;
  severe.brownouts.push_back({0.5, 1.0, 0.4});
  severe.retry.backoff_initial = 0.2;
  severe.seed = 4242;
  service.set_fault_plan(severe);
  SupervisorPolicy policy;
  policy.attempt_deadline = 0.8;
  policy.max_attempts = 30;
  policy.degrade_after = 4;
  service.set_supervisor(policy);

  std::vector<TransferJob> jobs;
  jobs.push_back({"fast", job_dataset(100 * kMB, 8), JobPolicy::kDeadline, 0, 0, 8});
  jobs.push_back({"balanced", job_dataset(100 * kMB, 8), JobPolicy::kBalanced, 0, 0, 8});
  jobs.push_back({"green", job_dataset(50 * kMB, 8), JobPolicy::kGreen, 0, 0, 8});
  const auto report = service.run_queue(jobs);

  EXPECT_EQ(report.failed_jobs, 0);
  int total_resumes = 0;
  for (const auto& job : report.jobs) {
    EXPECT_FALSE(job.failed) << job.name;
    EXPECT_TRUE(job.result.completed) << job.name;
    total_resumes += job.recovery.count(RecoveryAction::kResume);
  }
  EXPECT_EQ(report.jobs[0].result.goodput_bytes(), 8u * 100 * kMB);
  EXPECT_EQ(report.jobs[1].result.goodput_bytes(), 8u * 100 * kMB);
  EXPECT_EQ(report.jobs[2].result.goodput_bytes(), 8u * 50 * kMB);
  EXPECT_GT(total_resumes, 0);  // the deadline bit at least once
  EXPECT_GT(report.mean_rate_fraction, 0.0);
}

TEST(SupervisedService, UnsupervisedServiceStillReportsFailuresHonestly) {
  // Without set_supervisor the service runs each job once — but a job that
  // trips the engine's time guard is now a *failure*, not a fake success.
  const auto t = tiny_xsede();
  auto cfg = fast_cfg();
  cfg.max_sim_time = 0.4;  // the 800 MB job needs ~1.2 s
  TransferService service(t, gbps(7.0), cfg);
  std::vector<TransferJob> jobs;
  jobs.push_back({"truncated", job_dataset(100 * kMB, 8), JobPolicy::kDeadline, 0, 0, 8});
  const auto report = service.run_queue(jobs);

  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_TRUE(report.jobs[0].failed);
  EXPECT_EQ(report.jobs[0].attempts, 1);
  EXPECT_EQ(report.failed_jobs, 1);
  EXPECT_DOUBLE_EQ(report.mean_rate_fraction, 0.0);
  EXPECT_FALSE(report.jobs[0].sla_met);
  EXPECT_EQ(report.jobs[0].recovery.count(RecoveryAction::kGiveUp), 1);
}

TEST(SupervisedService, RefusedStartIsOneFailedAttempt) {
  // A leg that refuses to start (here: a malformed fault plan) is one
  // attempt, failed, whose result carries only the reason.
  const auto t = tiny_xsede();
  proto::FaultPlan malformed;
  malformed.outages.push_back({true, 0, -1.0, 1.0});  // negative start time
  ASSERT_TRUE(malformed.validate().has_value());
  SupervisorPolicy policy;
  policy.attempt_deadline = 0.8;
  policy.max_attempts = 4;
  for (const bool supervised : {false, true}) {
    TransferService service(t, gbps(7.0), fast_cfg());
    service.set_fault_plan(malformed);
    if (supervised) service.set_supervisor(policy);
    const auto report = service.run_queue(
        {{"refused", job_dataset(100 * kMB, 8), JobPolicy::kDeadline, 0, 0, 8}});

    ASSERT_EQ(report.jobs.size(), 1u);
    const auto& out = report.jobs[0];
    EXPECT_TRUE(out.failed) << supervised;
    EXPECT_EQ(out.attempts, 1) << supervised;
    EXPECT_EQ(out.result.error, "invalid FaultPlan: " + *malformed.validate()) << supervised;
    EXPECT_FALSE(out.result.completed) << supervised;
    EXPECT_EQ(out.result.bytes, 0u) << supervised;
    EXPECT_EQ(out.result.duration, 0.0) << supervised;
    EXPECT_EQ(out.recovery.count(RecoveryAction::kGiveUp), 1) << supervised;
    EXPECT_EQ(report.failed_jobs, 1) << supervised;
  }
}

}  // namespace
}  // namespace eadt::exp
