#include "exp/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "exp/service.hpp"

namespace eadt::exp {
namespace {

testbeds::Testbed tiny_xsede() {
  auto t = testbeds::xsede();
  t.recipe.total_bytes /= 64;
  for (auto& band : t.recipe.bands) {
    band.max_size = std::max(band.max_size / 64, band.min_size * 2);
  }
  return t;
}

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

int count_action(const TenantOutcome& out, RecoveryAction action) {
  return out.recovery.count(action);
}

TEST(Scheduler, SlaClassMapping) {
  EXPECT_EQ(sla_class_of(JobPolicy::kDeadline), SlaClass::kInteractive);
  EXPECT_EQ(sla_class_of(JobPolicy::kSla), SlaClass::kInteractive);
  EXPECT_EQ(sla_class_of(JobPolicy::kBalanced), SlaClass::kStandard);
  EXPECT_EQ(sla_class_of(JobPolicy::kEnergyBudget), SlaClass::kStandard);
  EXPECT_EQ(sla_class_of(JobPolicy::kGreen), SlaClass::kScavenger);
  EXPECT_STREQ(to_string(SlaClass::kInteractive), "interactive");
  EXPECT_STREQ(to_string(SlaClass::kStandard), "standard");
  EXPECT_STREQ(to_string(SlaClass::kScavenger), "scavenger");
}

TEST(Scheduler, ConcurrentTenantsContendForTheSharedPath) {
  const auto tb = tiny_xsede();
  const auto ds = job_dataset(100 * kMB, 10);

  SchedulerPolicy policy;
  policy.max_concurrent = 2;
  Scheduler solo(tb, gbps(7.0), policy, fast_cfg());
  std::vector<SchedulerJob> one;
  one.push_back({{"a", ds, JobPolicy::kBalanced, 0, 0, 6}, 0.0});
  const auto solo_report = solo.run(std::move(one));

  Scheduler pair(tb, gbps(7.0), policy, fast_cfg());
  std::vector<SchedulerJob> two;
  two.push_back({{"a", ds, JobPolicy::kBalanced, 0, 0, 6}, 0.0});
  two.push_back({{"b", ds, JobPolicy::kBalanced, 0, 0, 6}, 0.0});
  const auto pair_report = pair.run(std::move(two));

  ASSERT_EQ(pair_report.jobs.size(), 2u);
  EXPECT_EQ(pair_report.max_concurrent_observed, 2);
  EXPECT_EQ(pair_report.completed, 2);
  // Fair-shared link: each of the two takes longer than the uncontended run,
  // and the pair's makespan is clearly below back-to-back execution (they
  // genuinely overlapped rather than serializing).
  const Seconds solo_t = solo_report.jobs[0].result.duration;
  EXPECT_GT(pair_report.jobs[0].result.duration, solo_t * 1.2);
  EXPECT_GT(pair_report.jobs[1].result.duration, solo_t * 1.2);
  EXPECT_LT(pair_report.makespan, 2.0 * solo_t * 0.98);
  EXPECT_TRUE(pair_report.accounting_consistent());
}

TEST(Scheduler, PowerCapGatesDispatchAndIsNeverExceeded) {
  const auto tb = tiny_xsede();
  const auto ds = job_dataset(100 * kMB, 8);
  const Watts bound = session_peak_power_bound(tb.env);
  ASSERT_GT(bound, 0.0);

  SchedulerPolicy policy;
  policy.max_concurrent = 4;
  policy.power_cap = bound * 1.5;  // room for one session, not two
  Scheduler scheduler(tb, gbps(7.0), policy, fast_cfg());
  std::vector<SchedulerJob> jobs;
  for (int i = 0; i < 3; ++i) {
    jobs.push_back({{"j" + std::to_string(i), ds, JobPolicy::kBalanced, 0, 0, 4}, 0.0});
  }
  const auto report = scheduler.run(std::move(jobs));

  EXPECT_EQ(report.completed, 3);
  EXPECT_EQ(report.max_concurrent_observed, 1);
  EXPECT_EQ(report.power_cap_violations, 0);
  EXPECT_LE(report.peak_power, policy.power_cap);
  EXPECT_LE(report.peak_power_bound, policy.power_cap);
  EXPECT_TRUE(report.accounting_consistent());
}

TEST(Scheduler, ImpossiblePowerCapShedsInsteadOfWedging) {
  const auto tb = tiny_xsede();
  SchedulerPolicy policy;
  policy.power_cap = 1.0;  // below any session's provable bound
  Scheduler scheduler(tb, gbps(7.0), policy, fast_cfg());
  std::vector<SchedulerJob> jobs;
  jobs.push_back({{"doomed", job_dataset(50 * kMB, 4), JobPolicy::kBalanced, 0, 0, 4},
                  0.0});
  const auto report = scheduler.run(std::move(jobs));
  EXPECT_EQ(report.rejected, 1);
  EXPECT_EQ(report.completed, 0);
  EXPECT_TRUE(report.jobs[0].rejected);
  EXPECT_TRUE(report.accounting_consistent());
}

TEST(Scheduler, BoundedQueueShedsTheOverflowWithHonestAccounting) {
  const auto tb = tiny_xsede();
  const auto ds = job_dataset(100 * kMB, 8);
  SchedulerPolicy policy;
  policy.max_concurrent = 1;
  policy.max_queue_depth = 1;
  Scheduler scheduler(tb, gbps(7.0), policy, fast_cfg());
  std::vector<SchedulerJob> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back({{"j" + std::to_string(i), ds, JobPolicy::kBalanced, 0, 0, 4}, 0.0});
  }
  const auto report = scheduler.run(std::move(jobs));

  // One runs, one waits, two are shed at admission.
  EXPECT_EQ(report.submitted, 4);
  EXPECT_EQ(report.rejected, 2);
  EXPECT_EQ(report.completed, 2);
  EXPECT_TRUE(report.accounting_consistent());
  int shed_records = 0;
  for (const auto& out : report.jobs) {
    if (out.rejected) {
      EXPECT_EQ(out.attempts, 0);
      EXPECT_EQ(count_action(out, RecoveryAction::kShed), 1);
      ++shed_records;
    }
  }
  EXPECT_EQ(shed_records, 2);
}

TEST(Scheduler, InteractiveArrivalPreemptsAScavengerWhichResumesAndLosesNothing) {
  const auto tb = tiny_xsede();
  const auto green_ds = job_dataset(100 * kMB, 12);
  const auto urgent_ds = job_dataset(100 * kMB, 4);

  SchedulerPolicy policy;
  policy.max_concurrent = 1;  // the scavenger occupies the only slot
  Scheduler scheduler(tb, gbps(7.0), policy, fast_cfg());
  std::vector<SchedulerJob> jobs;
  jobs.push_back({{"bg", green_ds, JobPolicy::kGreen, 0, 0, 4}, 0.0});
  jobs.push_back({{"urgent", urgent_ds, JobPolicy::kDeadline, 0, 0, 4}, 0.5});
  const auto report = scheduler.run(std::move(jobs));

  ASSERT_EQ(report.jobs.size(), 2u);
  const auto& bg = report.jobs[0];
  const auto& urgent = report.jobs[1];
  EXPECT_EQ(report.preemptions, 1);
  EXPECT_EQ(bg.preemptions, 1);
  EXPECT_EQ(count_action(bg, RecoveryAction::kPreempt), 1);
  EXPECT_EQ(count_action(bg, RecoveryAction::kResume), 1);
  EXPECT_GE(bg.attempts, 2);  // original leg + resumed leg
  // The scavenger's log runs on its transfer clock: never backwards, and
  // the preemption and the resume that follows it share one instant.
  const auto& events = bg.recovery.events;
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].at, events[i].at) << "event " << i;
  }
  const auto preempt =
      std::find_if(events.begin(), events.end(), [](const RecoveryEvent& e) {
        return e.action == RecoveryAction::kPreempt;
      });
  ASSERT_NE(preempt, events.end());
  const auto resume = std::find_if(preempt, events.end(), [](const RecoveryEvent& e) {
    return e.action == RecoveryAction::kResume;
  });
  ASSERT_NE(resume, events.end());
  EXPECT_GT(preempt->at, 0.0);
  EXPECT_EQ(preempt->at, resume->at);

  // Both completed, and no acknowledged byte was lost or re-paid: the
  // scavenger's cumulative goodput equals its dataset exactly.
  EXPECT_TRUE(bg.result.completed);
  EXPECT_TRUE(urgent.result.completed);
  EXPECT_EQ(bg.result.goodput_bytes(), green_ds.total_bytes());
  EXPECT_EQ(urgent.result.goodput_bytes(), urgent_ds.total_bytes());
  // The urgent job ran while the scavenger was parked: it finished before
  // the scavenger did.
  EXPECT_LT(urgent.finished_at, bg.finished_at);
  // Each completion is booked under its job's SLA class.
  EXPECT_EQ(report.interactive.completed, 1);
  EXPECT_EQ(report.scavenger.completed, 1);
  EXPECT_TRUE(report.accounting_consistent());
}

TEST(Scheduler, TariffDefersScavengersIntoTheCheapBand) {
  const auto tb = tiny_xsede();
  SchedulerPolicy policy;
  policy.max_defer = 24.0 * 3600;
  Scheduler scheduler(tb, gbps(7.0), policy, fast_cfg());
  // Peak band 8:00-20:00 at 6x the night price; the schedule starts at 10:00.
  scheduler.set_tariff(power::Tariff::time_of_use(0.05, {{8.0, 20.0, 0.30}}),
                       10.0 * 3600);
  std::vector<SchedulerJob> jobs;
  jobs.push_back({{"night", job_dataset(50 * kMB, 4), JobPolicy::kGreen, 0, 0, 4}, 0.0});
  const auto report = scheduler.run(std::move(jobs));

  ASSERT_EQ(report.jobs.size(), 1u);
  const auto& out = report.jobs[0];
  EXPECT_EQ(report.deferrals, 1);
  EXPECT_EQ(count_action(out, RecoveryAction::kDefer), 1);
  EXPECT_TRUE(out.result.completed);
  // Deferred out of the peak band: it started at least ten simulated hours
  // after submission (20:00 is the earliest cheap second).
  EXPECT_GE(out.started_at, 10.0 * 3600);
  EXPECT_GT(out.cost_usd, 0.0);
  EXPECT_TRUE(report.accounting_consistent());
}

TEST(Scheduler, ATariffDeferredScavengerHoldsItsPlaceInTheWaitingRoom) {
  // The waiting room counts deferred tenants with the queued ones: a
  // scavenger parked for the cheap band fills a one-place room, so the next
  // arrival is shed even though the queue itself is empty.
  const auto tb = tiny_xsede();
  SchedulerPolicy policy;
  policy.max_queue_depth = 1;
  policy.max_defer = 24.0 * 3600;
  Scheduler scheduler(tb, gbps(7.0), policy, fast_cfg());
  scheduler.set_tariff(power::Tariff::time_of_use(0.05, {{8.0, 20.0, 0.30}}),
                       10.0 * 3600);
  const auto ds = job_dataset(50 * kMB, 2);
  std::vector<SchedulerJob> jobs;
  jobs.push_back({{"night", ds, JobPolicy::kGreen, 0, 0, 4}, 0.0});
  jobs.push_back({{"late", ds, JobPolicy::kBalanced, 0, 0, 4}, 1.0});
  const auto report = scheduler.run(std::move(jobs));

  ASSERT_EQ(report.jobs.size(), 2u);
  const auto& night = report.jobs[0];
  const auto& late = report.jobs[1];
  EXPECT_EQ(night.deferrals, 1);
  EXPECT_TRUE(night.result.completed);
  EXPECT_TRUE(late.rejected);
  EXPECT_EQ(count_action(late, RecoveryAction::kShed), 1);
  ASSERT_FALSE(late.recovery.events.empty());
  EXPECT_EQ(late.recovery.events.front().detail, "waiting queue full (1/1)");
  EXPECT_EQ(report.rejected, 1);
  EXPECT_TRUE(report.accounting_consistent());
}

TEST(Scheduler, SiteBrownoutSlowsEveryTenant) {
  const auto tb = tiny_xsede();
  // Big files so the duration is bandwidth-bound — a capacity brownout can
  // only stretch the part of the run that is actually waiting on the link.
  const auto ds = job_dataset(500 * kMB, 8);
  SchedulerPolicy calm;
  Scheduler clean(tb, gbps(7.0), calm, fast_cfg());
  std::vector<SchedulerJob> jobs;
  jobs.push_back({{"a", ds, JobPolicy::kBalanced, 0, 0, 4}, 0.0});
  const Seconds clean_t = clean.run(jobs).jobs[0].result.duration;

  SchedulerPolicy stormy = calm;
  stormy.link_brownouts.push_back({0.0, clean_t * 2.0, 0.25});
  Scheduler storm(tb, gbps(7.0), stormy, fast_cfg());
  const auto report = storm.run(jobs);
  EXPECT_TRUE(report.jobs[0].result.completed);
  EXPECT_GT(report.jobs[0].result.duration, clean_t * 1.5);
}

TEST(Scheduler, ProbesTheSameReferenceRateAsTheService) {
  // A zero reference rate makes both measure the site's ProMC best case.
  const auto tb = tiny_xsede();
  const Scheduler scheduler(tb, 0.0, SchedulerPolicy{}, fast_cfg());
  const TransferService service(tb, 0.0, fast_cfg());
  EXPECT_GT(scheduler.reference_rate(), 0.0);
  EXPECT_EQ(scheduler.reference_rate(), service.reference_rate());
}

}  // namespace
}  // namespace eadt::exp
