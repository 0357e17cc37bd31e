// Path-resilience layer: checkpoint path identity, targeted fault filtering,
// phi-accrual health scoring, and failover in the scheduler — for service
// jobs (one-tenant schedules) and for tenants sharing a site: migration off a
// dead primary, the hedged tail race, per-site power caps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exp/health.hpp"
#include "exp/scheduler.hpp"
#include "exp/service.hpp"
#include "exp/supervisor.hpp"
#include "net/path_set.hpp"
#include "obs/obs.hpp"
#include "proto/checkpoint.hpp"
#include "proto/faults.hpp"

namespace eadt::exp {
namespace {

testbeds::Testbed small_xsede() {
  auto t = testbeds::xsede();
  t.recipe.total_bytes /= 64;
  for (auto& band : t.recipe.bands) {
    band.max_size = std::max(band.max_size / 64, band.min_size * 2);
  }
  return t;
}

proto::SessionConfig dense_cfg() {
  proto::SessionConfig cfg;
  cfg.sample_interval = 1.0;  // dense windows so the health monitor sees stalls
  return cfg;
}

/// Primary = the testbed's own route; backup = a longer detour of the same
/// trunk class with its own device chain and tariff zone.
net::PathSet two_paths(const testbeds::Testbed& tb) {
  net::PathSet paths;
  paths.add({"primary", tb.env.path, tb.env.route, 0});
  net::PathSpec alt = tb.env.path;
  alt.rtt *= 1.5;
  paths.add({"backup", alt, net::futuregrid_route(), 1});
  return paths;
}

/// `job` as a one-job TransferService queue under `policy` and `faults`,
/// publishing into `obs` when given.
JobOutcome supervise(const testbeds::Testbed& tb, proto::FaultPlan faults,
                     SupervisorPolicy policy, const TransferJob& job,
                     obs::ObsSinks* obs = nullptr) {
  proto::SessionConfig cfg = dense_cfg();
  cfg.obs = obs;
  TransferService service(tb, gbps(7.0), cfg);
  service.set_fault_plan(std::move(faults));
  service.set_supervisor(std::move(policy));
  return service.run_queue({job}).jobs.front();
}

/// Duration of one clean unsupervised run of `job` — the unit the failover
/// deadlines are expressed in.
Seconds clean_duration(const testbeds::Testbed& tb, const TransferJob& job) {
  const auto outcome = supervise(tb, {}, SupervisorPolicy{}, job);
  EXPECT_FALSE(outcome.failed);
  return outcome.result.duration;
}

/// How many decisions of `kind` the log holds, and the subject of the last.
std::pair<int, std::string> decisions_of(const obs::DecisionLog& log,
                                         obs::DecisionKind kind) {
  std::pair<int, std::string> found{0, ""};
  for (const auto& d : log.decisions()) {
    if (d.kind != kind) continue;
    ++found.first;
    found.second = d.subject;
  }
  return found;
}

TransferJob deadline_job(const testbeds::Testbed& tb, const std::string& name) {
  TransferJob job;
  job.name = name;
  job.dataset = tb.make_dataset();
  job.policy = JobPolicy::kDeadline;
  job.max_channels = 8;
  return job;
}

// --- checkpoint path identity ----------------------------------------------

TEST(FailoverCheckpoint, PathIdRoundTrips) {
  proto::TransferCheckpoint ckpt;
  ckpt.taken_at = 12.5;
  ckpt.dataset_fingerprint = 77;
  ckpt.path_id = 3;
  std::stringstream ss;
  proto::write_checkpoint(ss, ckpt);
  std::string error;
  const auto back = proto::read_checkpoint(ss, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->path_id, 3);
  EXPECT_EQ(back->taken_at, 12.5);
}

TEST(FailoverCheckpoint, PrimaryPathLineIsOmitted) {
  // Single-path journals must serialize exactly as they did before the path
  // field existed, so existing goldens and readers are untouched.
  proto::TransferCheckpoint ckpt;
  ckpt.path_id = 0;
  std::stringstream ss;
  proto::write_checkpoint(ss, ckpt);
  EXPECT_EQ(ss.str().find("\npath "), std::string::npos);

  // And a journal written without the line parses back to the primary.
  std::stringstream in(ss.str());
  const auto back = proto::read_checkpoint(in);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->path_id, 0);
}

// --- targeted fault filtering ----------------------------------------------

TEST(FailoverFaults, ForPathKeepsOwnAndUntargetedBrownouts) {
  proto::FaultPlan plan;
  plan.brownouts.push_back({1.0, 2.0, 0.5, /*path=*/-1});
  plan.brownouts.push_back({5.0, 2.0, 0.1, /*path=*/0});
  plan.brownouts.push_back({9.0, 2.0, 0.2, /*path=*/1});
  plan.channel_drops.push_back({3.0, -1});

  const auto p0 = plan.for_path(0);
  ASSERT_EQ(p0.brownouts.size(), 2u);
  EXPECT_EQ(p0.brownouts[0].path, -1);
  EXPECT_EQ(p0.brownouts[1].path, 0);
  EXPECT_EQ(p0.channel_drops.size(), 1u);  // non-brownouts pass through

  const auto p1 = plan.for_path(1);
  ASSERT_EQ(p1.brownouts.size(), 2u);
  EXPECT_EQ(p1.brownouts[1].path, 1);

  const auto p2 = plan.for_path(2);
  ASSERT_EQ(p2.brownouts.size(), 1u);  // only the untargeted one remains
}

// --- health monitor ---------------------------------------------------------

TEST(FailoverHealth, StartsOptimisticAndTieBreaksLowestIndex) {
  HealthMonitor monitor(3);
  for (int p = 0; p < 3; ++p) EXPECT_EQ(monitor.phi(p), 0.0);
  EXPECT_EQ(monitor.healthiest(), 0);
  EXPECT_EQ(monitor.healthiest(/*exclude=*/0), 1);
}

TEST(FailoverHealth, StalledGoodputCrossesSuspicionThenFailure) {
  HealthMonitor monitor(2);
  double last = 0.0;
  bool suspected = false;
  for (int w = 1; w <= 60; ++w) {
    monitor.observe_goodput(0, static_cast<Seconds>(w), 0.0);
    const double phi = monitor.phi(0);
    EXPECT_GE(phi, last);  // monotone while the stall persists
    last = phi;
    if (phi >= monitor.config().suspect_phi) suspected = true;
  }
  EXPECT_TRUE(suspected);
  EXPECT_TRUE(monitor.failed(0));
  // The untouched path is unaffected and wins the failover pick.
  EXPECT_EQ(monitor.phi(1), 0.0);
  EXPECT_EQ(monitor.healthiest(/*exclude=*/0), 1);
}

TEST(FailoverHealth, RecoveredGoodputDrivesPhiBackDown) {
  HealthMonitor monitor(1);
  for (int w = 1; w <= 20; ++w) {
    monitor.observe_goodput(0, static_cast<Seconds>(w), 0.0);
  }
  const double stalled = monitor.phi(0);
  for (int w = 21; w <= 80; ++w) {
    monitor.observe_goodput(0, static_cast<Seconds>(w), 1.0);
  }
  EXPECT_LT(monitor.phi(0), stalled);
  EXPECT_LT(monitor.phi(0), monitor.config().suspect_phi);
}

TEST(FailoverHealth, FaultDemeritsDecayWithSimulatedTime) {
  HealthMonitorConfig cfg;
  cfg.fault_weight = 0.5;
  cfg.fault_halflife = 30.0;
  HealthMonitor monitor(1, cfg);
  monitor.observe_fault(0, 0.0, /*weight=*/2.0);
  const double fresh = monitor.phi(0);
  EXPECT_NEAR(fresh, 1.0, 1e-9);  // 2.0 * fault_weight
  // Advance simulated time with healthy goodput; one half-life halves the
  // demerit term while the ewma term stays ~0.
  monitor.observe_goodput(0, 30.0, 1.0);
  EXPECT_NEAR(monitor.phi(0), 0.5, 0.05);
  monitor.observe_goodput(0, 300.0, 1.0);
  EXPECT_LT(monitor.phi(0), 0.01);
}

// --- environment re-binding -------------------------------------------------

TEST(FailoverEnvironment, RebindsPathAndRouteOnly) {
  const auto tb = small_xsede();
  net::PathSpec alt = tb.env.path;
  alt.rtt = 0.123;
  const net::PathOption option{"detour", alt, net::didclab_route(), 2};
  const auto env = environment_for_path(tb.env, option);
  EXPECT_EQ(env.path.rtt, 0.123);
  EXPECT_EQ(env.path.bandwidth, tb.env.path.bandwidth);
  EXPECT_NE(env.name, tb.env.name);
  // End systems are untouched: same endpoints, different wire between them.
  EXPECT_EQ(env.source.servers.size(), tb.env.source.servers.size());
  EXPECT_EQ(env.destination.servers.size(), tb.env.destination.servers.size());
}

// --- service failover (one-tenant schedules) --------------------------------

TEST(FailoverSupervisor, MigratesOffDeadPrimaryAndConservesBytes) {
  const auto tb = small_xsede();
  const auto job = deadline_job(tb, "outage");
  const Seconds T = clean_duration(tb, job);
  ASSERT_GT(T, 0.0);

  SupervisorPolicy policy;
  policy.attempt_deadline = 0.9 * T;
  policy.max_attempts = 6;
  policy.degrade_after = 4;
  policy.paths = two_paths(tb);
  policy.health.suspect_phi = 0.45;

  proto::FaultPlan faults;
  faults.brownouts.push_back({0.35 * T, 1e6, 0.0, /*path=*/0});

  const auto outcome = supervise(tb, faults, policy, job);

  EXPECT_FALSE(outcome.failed);
  EXPECT_TRUE(outcome.result.completed);
  EXPECT_GE(outcome.migrations, 1);
  EXPECT_LE(outcome.migrations, outcome.attempts);
  EXPECT_EQ(outcome.final_path, 1);
  EXPECT_EQ(outcome.recovery.count(RecoveryAction::kMigrate), outcome.migrations);
  // Landed bytes are never re-paid and never lost across the failover.
  EXPECT_EQ(outcome.result.goodput_bytes(), job.dataset.total_bytes());
}

TEST(FailoverSupervisor, EmptyPathSetNeverMigratesOrHedges) {
  const auto tb = small_xsede();
  const auto job = deadline_job(tb, "single");
  const Seconds T = clean_duration(tb, job);

  SupervisorPolicy policy;
  policy.attempt_deadline = 0.5 * T;
  policy.max_attempts = 6;
  policy.job_deadline = 0.8 * T;  // inert without paths
  policy.hedge = true;

  const auto outcome = supervise(tb, {}, policy, job);
  EXPECT_FALSE(outcome.failed);
  EXPECT_EQ(outcome.migrations, 0);
  EXPECT_EQ(outcome.hedge_legs, 0);
  EXPECT_EQ(outcome.hedge_energy, 0.0);
  EXPECT_EQ(outcome.final_path, 0);
}

TEST(FailoverSupervisor, HedgesTailWhenDeadlineProjectionSlips) {
  const auto tb = small_xsede();
  const auto job = deadline_job(tb, "hedged");
  const Seconds T = clean_duration(tb, job);

  SupervisorPolicy policy;
  policy.attempt_deadline = 0.6 * T;
  policy.max_attempts = 6;
  policy.degrade_after = 4;
  policy.paths = two_paths(tb);
  policy.job_deadline = 0.85 * T;
  policy.hedge = true;

  const auto outcome = supervise(tb, {}, policy, job);

  EXPECT_FALSE(outcome.failed);
  EXPECT_EQ(outcome.hedge_legs, 2);  // exactly one race, two legs
  EXPECT_GE(outcome.hedge_energy, 0.0);
  EXPECT_EQ(outcome.recovery.count(RecoveryAction::kHedge), 1);
  EXPECT_EQ(outcome.result.goodput_bytes(), job.dataset.total_bytes());
}

TEST(FailoverSupervisor, RecoveryEventsRunOnTheTransferClock) {
  // Aborts, ladder steps, migrations, resumes, the hedge and the give-up
  // all fall on the job's transfer clock, so its log never runs backwards;
  // a hedge win falls at the winner's finish.
  const auto tb = small_xsede();
  const auto job = deadline_job(tb, "clock");
  const Seconds T = clean_duration(tb, job);

  SupervisorPolicy hedged;
  hedged.attempt_deadline = 0.6 * T;
  hedged.max_attempts = 6;
  hedged.degrade_after = 1;  // a ladder step at every abort
  hedged.paths = two_paths(tb);
  hedged.job_deadline = 0.85 * T;
  hedged.hedge = true;
  SupervisorPolicy doomed = hedged;
  doomed.attempt_deadline = 0.2 * T;
  doomed.max_attempts = 3;
  doomed.hedge = false;

  for (const auto& [name, policy] : {std::pair{"hedged", hedged}, std::pair{"doomed", doomed}}) {
    obs::DecisionLog decisions;
    obs::ObsSinks sinks{nullptr, nullptr, &decisions};
    const auto outcome = supervise(tb, {}, policy, job, &sinks);
    const auto& events = outcome.recovery.events;
    ASSERT_GE(events.size(), 4u) << name;
    for (std::size_t i = 1; i < events.size(); ++i) {
      EXPECT_GE(events[i].at, events[i - 1].at)
          << name << ": " << to_string(events[i - 1].action) << " then "
          << to_string(events[i].action);
    }
    EXPECT_LE(events.back().at, outcome.result.duration) << name;
    for (const auto& d : decisions.decisions()) {
      if (d.kind != obs::DecisionKind::kHedgeWin) continue;
      EXPECT_EQ(d.at, outcome.result.duration) << name;
    }
  }
}

// --- the hedge race's rules -------------------------------------------------

TEST(FailoverSupervisor, SameTickFinishGoesToTheFirstLeg) {
  // Twin routes with identical links: both legs of the race move the same
  // bytes in the same ticks and finish together.
  const auto tb = small_xsede();
  const auto job = deadline_job(tb, "tie");
  const Seconds T = clean_duration(tb, job);
  net::PathSet twins;
  twins.add({"left", tb.env.path, tb.env.route, 0});
  twins.add({"right", tb.env.path, tb.env.route, 1});

  SupervisorPolicy policy;
  policy.attempt_deadline = 0.6 * T;
  policy.max_attempts = 6;
  policy.degrade_after = 4;
  policy.paths = twins;
  policy.job_deadline = 0.85 * T;
  policy.hedge = true;
  obs::DecisionLog decisions;
  obs::ObsSinks sinks{nullptr, nullptr, &decisions};
  const auto outcome = supervise(tb, {}, policy, job, &sinks);

  EXPECT_FALSE(outcome.failed);
  EXPECT_EQ(outcome.hedge_legs, 2);
  EXPECT_GT(outcome.hedge_energy, 0.0);
  // The abort's demerit on "left" places the first leg on "right"; the
  // second leg races on "left". The tie goes to the first leg.
  EXPECT_EQ(outcome.migrations, 1);
  EXPECT_EQ(outcome.final_path, 1);
  const auto [wins, subject] = decisions_of(decisions, obs::DecisionKind::kHedgeWin);
  EXPECT_EQ(wins, 1);
  EXPECT_EQ(subject, "hedge won by 'right'");
  EXPECT_EQ(outcome.result.goodput_bytes(), job.dataset.total_bytes());
}

TEST(FailoverSupervisor, WatchdogDuringARaceCancelsTheSecondLeg) {
  // Legs of a quarter of the clean run: the race starts at the first abort
  // and its legs hit the watchdog before either can finish.
  const auto tb = small_xsede();
  const auto job = deadline_job(tb, "cut");
  const Seconds T = clean_duration(tb, job);

  SupervisorPolicy policy;
  policy.attempt_deadline = 0.25 * T;
  policy.max_attempts = 12;
  policy.degrade_after = 100;  // keep the ladder out of this test
  policy.paths = two_paths(tb);
  policy.job_deadline = 0.3 * T;
  policy.hedge = true;
  obs::DecisionLog decisions;
  obs::ObsSinks sinks{nullptr, nullptr, &decisions};
  const auto outcome = supervise(tb, {}, policy, job, &sinks);

  EXPECT_FALSE(outcome.failed);
  // One race, ended by the watchdog: the second leg was cancelled and
  // charged, nobody won, and the later aborts started no second race.
  EXPECT_EQ(outcome.hedge_legs, 2);
  EXPECT_GT(outcome.hedge_energy, 0.0);
  EXPECT_EQ(outcome.recovery.count(RecoveryAction::kHedge), 1);
  EXPECT_EQ(decisions_of(decisions, obs::DecisionKind::kHedgeWin).first, 0);
  const auto& events = outcome.recovery.events;
  const auto hedge = std::find_if(events.begin(), events.end(), [](const auto& e) {
    return e.action == RecoveryAction::kHedge;
  });
  ASSERT_NE(hedge, events.end());
  const auto next_abort = std::find_if(hedge, events.end(), [](const auto& e) {
    return e.action == RecoveryAction::kDeadlineAbort;
  });
  ASSERT_NE(next_abort, events.end());
  EXPECT_GE(std::count_if(next_abort, events.end(), [](const auto& e) {
              return e.action == RecoveryAction::kDeadlineAbort;
            }),
            2);
  // The first leg's journal carries on to the end: every byte lands once.
  EXPECT_EQ(outcome.result.goodput_bytes(), job.dataset.total_bytes());
  EXPECT_EQ(outcome.recovery.count(RecoveryAction::kResume), outcome.attempts - 1);
}

TEST(FailoverScheduler, PreemptingARacingScavengerCancelsItsSecondLeg) {
  const auto tb = small_xsede();
  TransferJob green = deadline_job(tb, "scavenger");
  green.policy = JobPolicy::kGreen;
  const Seconds T = clean_duration(tb, green);

  SchedulerPolicy policy;
  policy.max_concurrent = 2;  // the race fills both slots
  policy.max_queue_depth = 4;
  policy.paths = two_paths(tb);
  policy.supervision.attempt_deadline = 0.4 * T;
  policy.supervision.max_attempts = 8;
  policy.supervision.degrade_after = 100;
  policy.supervision.job_deadline = 0.5 * T;
  policy.supervision.hedge = true;
  policy.horizon = 100.0 * T;

  TransferJob urgent;
  urgent.name = "urgent";
  urgent.dataset.files = {{20 * kMB}, {20 * kMB}};
  urgent.policy = JobPolicy::kDeadline;
  urgent.max_channels = 4;
  std::vector<SchedulerJob> jobs;
  jobs.push_back({green, 0.0});
  jobs.push_back({urgent, 0.5 * T});  // the race runs from 0.4 T to 0.8 T
  Scheduler scheduler(tb, gbps(7.0), policy, dense_cfg());
  const auto report = scheduler.run(std::move(jobs));

  EXPECT_TRUE(report.accounting_consistent());
  EXPECT_EQ(report.completed, 2);
  EXPECT_EQ(report.max_concurrent_observed, 2);
  const auto& scav = report.jobs[0];
  EXPECT_EQ(scav.preemptions, 1);
  EXPECT_EQ(scav.hedge_legs, 2);
  EXPECT_GT(scav.hedge_energy, 0.0);
  EXPECT_EQ(scav.recovery.count(RecoveryAction::kHedge), 1);
  // The preemption ended the race: no abort fell between the two.
  const auto& events = scav.recovery.events;
  const auto hedge = std::find_if(events.begin(), events.end(), [](const auto& e) {
    return e.action == RecoveryAction::kHedge;
  });
  ASSERT_NE(hedge, events.end());
  const auto next = std::find_if(hedge + 1, events.end(), [](const auto& e) {
    return e.action == RecoveryAction::kPreempt ||
           e.action == RecoveryAction::kDeadlineAbort;
  });
  ASSERT_NE(next, events.end());
  EXPECT_EQ(next->action, RecoveryAction::kPreempt);
  EXPECT_EQ(scav.result.goodput_bytes(), green.dataset.total_bytes());
  EXPECT_EQ(report.jobs[1].preemptions, 0);
  EXPECT_EQ(report.jobs[1].result.goodput_bytes(), urgent.dataset.total_bytes());
}

// --- scheduler failover -----------------------------------------------------

TEST(FailoverScheduler, PartitionDrainsTenantsOntoSurvivingSite) {
  const auto tb = small_xsede();
  const auto probe = deadline_job(tb, "probe");
  TransferJob balanced = probe;
  balanced.policy = JobPolicy::kBalanced;
  balanced.max_channels = 4;
  const Seconds T = clean_duration(tb, balanced);

  SchedulerPolicy policy;
  policy.max_concurrent = 4;
  policy.max_queue_depth = 8;
  policy.paths = two_paths(tb);
  const Watts peak = session_peak_power_bound(tb.env);
  policy.path_power_caps = {peak * 2.5, peak * 2.5};
  policy.supervision.attempt_deadline = 2.5 * T;
  policy.supervision.max_attempts = 12;
  policy.supervision.degrade_after = 3;
  policy.horizon = 500.0 * T;
  policy.link_brownouts.push_back({0.5 * T, 100.0 * T, 0.0, /*path=*/0});

  std::vector<SchedulerJob> jobs;
  std::vector<Bytes> sizes;
  for (int i = 0; i < 4; ++i) {
    auto tenant = tb;
    tenant.dataset_seed = 7 + static_cast<std::uint64_t>(i);
    TransferJob job;
    job.name = "part" + std::to_string(i);
    job.dataset = tenant.make_dataset();
    job.policy = JobPolicy::kBalanced;
    job.max_channels = 4;
    sizes.push_back(job.dataset.total_bytes());
    jobs.push_back({std::move(job), 0.1 * T * i});
  }

  Scheduler scheduler(tb, gbps(7.0), policy, dense_cfg());
  const auto report = scheduler.run(std::move(jobs));

  EXPECT_TRUE(report.accounting_consistent());
  EXPECT_EQ(report.completed, report.accepted);
  EXPECT_EQ(report.failed, 0);
  EXPECT_GE(report.migrations, 1);
  EXPECT_EQ(report.power_cap_violations, 0);
  int migrations = 0;
  for (std::size_t i = 0; i < report.jobs.size(); ++i) {
    const auto& out = report.jobs[i];
    EXPECT_EQ(out.result.goodput_bytes(), sizes[i]);
    EXPECT_LE(out.migrations, out.attempts);
    migrations += out.migrations;
    // Everyone finishes on the surviving site.
    EXPECT_EQ(out.path, 1);
  }
  EXPECT_EQ(report.migrations, migrations);
}

TEST(FailoverScheduler, PerSiteCapsBoundConcurrencyPerPath) {
  const auto tb = small_xsede();
  SchedulerPolicy policy;
  policy.max_concurrent = 8;
  policy.max_queue_depth = 16;
  policy.paths = two_paths(tb);
  const Watts peak = session_peak_power_bound(tb.env);
  // Each site has room for exactly one session; the pair bounds the whole
  // schedule at two concurrent regardless of max_concurrent.
  policy.path_power_caps = {peak * 1.2, peak * 1.2};
  policy.horizon = 24.0 * 3600;

  std::vector<SchedulerJob> jobs;
  for (int i = 0; i < 5; ++i) {
    auto tenant = tb;
    tenant.dataset_seed = 31 + static_cast<std::uint64_t>(i);
    TransferJob job;
    job.name = "cap" + std::to_string(i);
    job.dataset = tenant.make_dataset();
    job.policy = JobPolicy::kBalanced;
    job.max_channels = 4;
    jobs.push_back({std::move(job), 2.0 * i});
  }

  Scheduler scheduler(tb, gbps(7.0), policy, dense_cfg());
  const auto report = scheduler.run(std::move(jobs));

  EXPECT_TRUE(report.accounting_consistent());
  EXPECT_EQ(report.completed, report.accepted);
  EXPECT_LE(report.max_concurrent_observed, 2);
  EXPECT_EQ(report.power_cap_violations, 0);
}

// --- a schedule without alternates is the one-path case ---------------------

struct PressureRun {
  std::string payload;    ///< scheduler_report_payload
  std::string decisions;  ///< eadt-decisions-v1 export
};

/// One schedule that leans on every single-path mechanism at once: a site
/// brownout, seeded channel drops, scavengers checkpointed out of the way of
/// interactive arrivals, a site power cap that admits two sessions, watchdog
/// aborts with ladder steps, and a queue small enough to shed. `paths` is the
/// only input that varies between the runs compared below.
PressureRun run_pressure_schedule(net::PathSet paths) {
  const auto tb = small_xsede();
  TransferJob probe = deadline_job(tb, "probe");
  probe.policy = JobPolicy::kBalanced;
  probe.max_channels = 4;
  const Seconds T = clean_duration(tb, probe);

  SchedulerPolicy policy;
  policy.max_concurrent = 3;
  policy.max_queue_depth = 4;
  policy.power_cap = session_peak_power_bound(tb.env) * 2.5;
  policy.supervision.attempt_deadline = 0.8 * T;
  policy.supervision.max_attempts = 6;
  policy.supervision.degrade_after = 1;
  policy.horizon = 200.0 * T;
  policy.link_brownouts.push_back({0.3 * T, 0.6 * T, 0.3});
  policy.paths = std::move(paths);

  proto::FaultPlan faults;
  faults.seed = 41;
  faults.stochastic.channel_drop_rate = 0.5;

  std::vector<SchedulerJob> jobs;
  for (int i = 0; i < 10; ++i) {
    auto tenant = tb;
    tenant.dataset_seed = 61 + static_cast<std::uint64_t>(i);
    TransferJob job;
    job.name = "mix" + std::to_string(i);
    job.dataset = tenant.make_dataset();
    // Scavengers first, then interactive and standard arrivals that find
    // the cap already spent.
    job.policy = i < 3 ? JobPolicy::kGreen
                 : i % 2 == 0 ? JobPolicy::kDeadline
                              : JobPolicy::kBalanced;
    job.max_channels = 4;
    jobs.push_back({std::move(job), 0.05 * T * i});
  }

  obs::ObsCollector collector;
  Scheduler scheduler(tb, gbps(7.0), policy, dense_cfg());
  scheduler.set_fault_plan(faults);
  scheduler.set_collector(&collector);
  const auto report = scheduler.run(std::move(jobs));

  // The schedule must actually reach the machinery it claims to compare.
  EXPECT_TRUE(report.accounting_consistent());
  EXPECT_GE(report.rejected, 1);
  EXPECT_GE(report.preemptions, 1);
  EXPECT_EQ(report.max_concurrent_observed, 2);  // the cap binds, not the slots
  EXPECT_EQ(report.power_cap_violations, 0);
  int aborts = 0;
  std::int64_t drops = 0;
  for (const auto& out : report.jobs) {
    aborts += out.recovery.count(RecoveryAction::kDeadlineAbort);
    drops += out.result.faults.channel_drops;
    EXPECT_EQ(out.path, 0);
    EXPECT_EQ(out.migrations, 0);
  }
  EXPECT_GE(aborts, 1);
  EXPECT_GE(drops, 1);

  std::ostringstream decisions;
  collector.write_decisions_json(decisions);
  return {scheduler_report_payload(report), decisions.str()};
}

TEST(FailoverScheduler, OneOptionPathSetReproducesTheSinglePathSchedule) {
  // A schedule without alternates runs on one path; naming that path in a
  // one-option PathSet must change nothing the report or the decision log
  // can see. Only the per-path health series (phi gauge, phi trace track,
  // telemetry site_phi) exist solely with a PathSet, so they are not
  // compared here.
  const auto tb = small_xsede();
  net::PathSet own;
  own.add({"primary", tb.env.path, tb.env.route, 0});
  const PressureRun single = run_pressure_schedule({});
  const PressureRun one_option = run_pressure_schedule(std::move(own));
  EXPECT_EQ(single.payload, one_option.payload);
  EXPECT_EQ(single.decisions, one_option.decisions);
}

TEST(FailoverScheduler, BrownoutAimedPastTheOnlyPathHasNoEffect) {
  // Without alternates the path table has one entry, index 0: a brownout
  // aimed at path 1 — site-level or in the fault plan — names no path.
  const auto tb = small_xsede();
  const auto payload = [&tb](int brownout_path) {
    SchedulerPolicy policy;
    proto::FaultPlan faults;
    if (brownout_path >= 0) {
      policy.link_brownouts.push_back({0.0, 1e6, 0.5, brownout_path});
      faults.brownouts.push_back({0.0, 1e6, 0.5, brownout_path});
    }
    Scheduler scheduler(tb, gbps(7.0), policy, dense_cfg());
    scheduler.set_fault_plan(faults);
    std::vector<SchedulerJob> jobs;
    jobs.push_back({deadline_job(tb, "a"), 0.0});
    jobs.push_back({deadline_job(tb, "b"), 1.0});
    return scheduler_report_payload(scheduler.run(std::move(jobs)));
  };
  const std::string clean = payload(-1);
  EXPECT_EQ(payload(1), clean);
  EXPECT_NE(payload(0), clean);  // aimed at the path that exists, it bites
}

TEST(FailoverScheduler, TickGaugesAppearOnlyOnceATenantRuns) {
  // The scheduler's gauges are created by the first tick with a running
  // tenant: a schedule that sheds everything exports none, and the per-path
  // phi gauges exist only with alternates.
  const auto tb = small_xsede();
  using Names = std::vector<std::string>;
  const auto scheduler_gauges = [&tb](net::PathSet paths, Watts power_cap) {
    SchedulerPolicy policy;
    policy.paths = std::move(paths);
    policy.power_cap = power_cap;
    obs::ObsCollector collector;
    Scheduler scheduler(tb, gbps(7.0), policy, dense_cfg());
    scheduler.set_collector(&collector);
    std::vector<SchedulerJob> jobs;
    jobs.push_back({deadline_job(tb, "g"), 0.0});
    (void)scheduler.run(std::move(jobs));
    Names names;
    for (const auto& m : collector.metrics().snapshot()) {
      if (m.kind == obs::MetricSnapshot::Kind::kGauge &&
          m.name.rfind("scheduler.", 0) == 0) {
        names.push_back(m.name);
      }
    }
    return names;
  };
  EXPECT_EQ(scheduler_gauges({}, 0.0), Names{"scheduler.peak_power_w"});
  EXPECT_EQ(scheduler_gauges(two_paths(tb), 0.0),
            (Names{"scheduler.path.backup.phi", "scheduler.path.primary.phi",
                   "scheduler.peak_power_w"}));
  // 1 W fits no session: the tenant is shed at admission and never runs.
  EXPECT_EQ(scheduler_gauges({}, 1.0), Names{});
  EXPECT_EQ(scheduler_gauges(two_paths(tb), 1.0), Names{});
}

}  // namespace
}  // namespace eadt::exp
