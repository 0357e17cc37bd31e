// Randomized fault-plan fuzz battery over the Scheduler, for tenants sharing
// a site and for service jobs (each a one-tenant schedule).
//
// Each case draws a job mix, a fault workload, and a policy from a seeded Rng
// and asserts the invariants the robustness layer promises regardless of what
// the draw produced:
//   * completed jobs lose no acknowledged byte across any preempt/abort/resume
//     chain (cumulative goodput == dataset bytes, exactly);
//   * accounting is conservative: accepted == submitted - rejected and
//     completed + failed == accepted, per class and in total;
//   * the measured site power never exceeds the cap between ticks;
//   * the same seed reproduces the same report bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <thread>

#include "exp/scheduler.hpp"
#include "exp/service.hpp"
#include "exp/supervisor.hpp"
#include "net/fair_share.hpp"
#include "net/path_set.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"

#include <sstream>

namespace eadt::exp {
namespace {

testbeds::Testbed tiny_xsede() { return testbeds::scaled(testbeds::xsede(), 64); }

proto::SessionConfig fast_cfg() {
  proto::SessionConfig cfg;
  cfg.sample_interval = 1.0;
  return cfg;
}

proto::Dataset fuzz_dataset(Rng& rng) {
  proto::Dataset ds;
  const int files = static_cast<int>(rng.uniform_int(3, 10));
  for (int i = 0; i < files; ++i) {
    ds.files.push_back({static_cast<Bytes>(rng.uniform_int(20, 160)) * kMB});
  }
  return ds;
}

proto::FaultPlan fuzz_faults(Rng& rng) {
  proto::FaultPlan plan;
  plan.seed = rng.next_u64();
  plan.stochastic.channel_drop_rate = rng.uniform(0.0, 0.02);
  if (rng.uniform01() < 0.5) {
    plan.stochastic.checksum_failure_prob = rng.uniform(0.0, 0.05);
  }
  const int drops = static_cast<int>(rng.uniform_int(0, 3));
  for (int i = 0; i < drops; ++i) {
    plan.channel_drops.push_back({rng.uniform(1.0, 60.0), -1});
  }
  if (rng.uniform01() < 0.5) {
    // Non-overlapping brownout windows, as validate() requires.
    Seconds at = rng.uniform(2.0, 10.0);
    const int windows = static_cast<int>(rng.uniform_int(1, 2));
    for (int i = 0; i < windows; ++i) {
      const Seconds dur = rng.uniform(2.0, 15.0);
      plan.brownouts.push_back({at, dur, rng.uniform(0.2, 0.8)});
      at += dur + rng.uniform(1.0, 5.0);
    }
  }
  if (rng.uniform01() < 0.3) {
    plan.outages.push_back({rng.uniform01() < 0.5, 0, rng.uniform(2.0, 20.0),
                            rng.uniform(1.0, 8.0)});
  }
  EXPECT_EQ(plan.validate(), std::nullopt);
  return plan;
}

JobPolicy fuzz_policy(Rng& rng) {
  switch (rng.uniform_int(0, 4)) {
    case 0: return JobPolicy::kDeadline;
    case 1: return JobPolicy::kGreen;
    case 2: return JobPolicy::kBalanced;
    case 3: return JobPolicy::kSla;
    default: return JobPolicy::kEnergyBudget;
  }
}

TransferJob fuzz_job(Rng& rng, int index) {
  TransferJob job;
  job.name = "fuzz-" + std::to_string(index);
  job.dataset = fuzz_dataset(rng);
  job.policy = fuzz_policy(rng);
  job.sla_percent = rng.uniform(5.0, 40.0);
  job.energy_budget = rng.uniform(5e4, 5e5);
  job.max_channels = static_cast<int>(rng.uniform_int(2, 8));
  return job;
}

/// The per-job invariants shared by both batteries.
void check_outcome_invariants(const std::string& label, const TenantOutcome& out,
                              Bytes dataset_bytes) {
  SCOPED_TRACE(label + " job " + out.name);
  if (out.rejected) {
    EXPECT_EQ(out.attempts, 0);
    EXPECT_EQ(out.result.bytes, 0u);
    return;
  }
  if (out.result.completed) {
    EXPECT_FALSE(out.failed);
    // No acknowledged byte lost OR double-counted across preempt/abort/resume:
    // cumulative goodput equals the dataset exactly.
    EXPECT_EQ(out.result.goodput_bytes(), dataset_bytes);
  }
  // Every preemption must have produced a matching resume or ended in
  // failure/horizon cleanup — a preempted job never vanishes silently.
  const int resumes = out.recovery.count(RecoveryAction::kResume);
  if (out.preemptions > 0 && !out.failed) {
    EXPECT_GE(resumes, out.preemptions);
  }
  EXPECT_GE(out.attempts, out.result.completed ? 1 : 0);
}

struct FuzzRun {
  SchedulerReport report;
  std::vector<Bytes> dataset_bytes;  ///< per job, submission order
};

FuzzRun run_fuzz_schedule(std::uint64_t seed) {
  Rng rng(seed);
  const auto tb = tiny_xsede();

  SchedulerPolicy policy;
  policy.max_concurrent = static_cast<int>(rng.uniform_int(1, 4));
  policy.max_queue_depth = static_cast<int>(rng.uniform_int(1, 6));
  policy.supervision.attempt_deadline = rng.uniform(30.0, 400.0);
  policy.supervision.max_attempts = static_cast<int>(rng.uniform_int(2, 5));
  policy.supervision.degrade_after = 1;
  policy.horizon = 24.0 * 3600;
  if (rng.uniform01() < 0.5) {
    policy.power_cap =
        session_peak_power_bound(tb.env) * rng.uniform(1.0, 3.5);
  }
  if (rng.uniform01() < 0.5) {
    policy.link_brownouts.push_back(
        {rng.uniform(5.0, 60.0), rng.uniform(5.0, 60.0), rng.uniform(0.2, 0.7)});
  }
  const bool tariffed = rng.uniform01() < 0.4;
  if (tariffed) policy.max_defer = 12.0 * 3600;

  Scheduler scheduler(tb, gbps(7.0), policy, fast_cfg());
  scheduler.set_fault_plan(fuzz_faults(rng));
  if (tariffed) {
    scheduler.set_tariff(power::Tariff::time_of_use(0.05, {{8.0, 20.0, 0.30}}),
                         rng.uniform(0.0, 24.0) * 3600);
  }

  std::vector<SchedulerJob> jobs;
  FuzzRun run;
  const int n = static_cast<int>(rng.uniform_int(4, 10));
  Seconds at = 0.0;
  for (int i = 0; i < n; ++i) {
    auto job = fuzz_job(rng, i);
    run.dataset_bytes.push_back(job.dataset.total_bytes());
    jobs.push_back({std::move(job), at});
    at += rng.uniform(0.0, 30.0);
  }
  run.report = scheduler.run(std::move(jobs));
  return run;
}

TEST(FuzzRobustness, SchedulerInvariantsHoldAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto run = run_fuzz_schedule(seed);
    const auto& report = run.report;

    // Accounting conservation, in total and per class.
    EXPECT_TRUE(report.accounting_consistent());
    EXPECT_EQ(static_cast<int>(report.jobs.size()), report.submitted);
    for (const auto* cls :
         {&report.interactive, &report.standard, &report.scavenger}) {
      EXPECT_EQ(cls->completed + cls->failed, cls->submitted - cls->rejected);
    }
    EXPECT_EQ(report.interactive.submitted + report.standard.submitted +
                  report.scavenger.submitted,
              report.submitted);

    // The cap is a hard invariant, not a target.
    EXPECT_EQ(report.power_cap_violations, 0);
    EXPECT_LE(report.peak_power, report.peak_power_bound + 1e-9);

    ASSERT_EQ(report.jobs.size(), run.dataset_bytes.size());
    int preemptions = 0;
    int deferrals = 0;
    for (std::size_t i = 0; i < report.jobs.size(); ++i) {
      const auto& out = report.jobs[i];
      check_outcome_invariants("scheduler", out, run.dataset_bytes[i]);
      preemptions += out.preemptions;
      deferrals += out.deferrals;
    }
    EXPECT_EQ(report.preemptions, preemptions);
    EXPECT_EQ(report.deferrals, deferrals);
  }
}

TEST(FuzzRobustness, SchedulerGoodputMatchesDatasetsExactly) {
  // A tighter variant of the invariant above: build the jobs outside the
  // helper so the dataset sizes are known, then check byte conservation.
  for (std::uint64_t seed = 21; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const auto tb = tiny_xsede();
    SchedulerPolicy policy;
    policy.max_concurrent = 1;  // force queueing and preemption pressure
    policy.max_queue_depth = 8;
    policy.supervision.attempt_deadline = rng.uniform(60.0, 240.0);
    policy.supervision.max_attempts = 5;
    policy.horizon = 24.0 * 3600;

    Scheduler scheduler(tb, gbps(7.0), policy, fast_cfg());
    scheduler.set_fault_plan(fuzz_faults(rng));

    std::vector<SchedulerJob> jobs;
    std::vector<Bytes> sizes;
    for (int i = 0; i < 5; ++i) {
      auto job = fuzz_job(rng, i);
      job.policy = (i % 2 == 0) ? JobPolicy::kGreen : JobPolicy::kDeadline;
      sizes.push_back(job.dataset.total_bytes());
      jobs.push_back({std::move(job), rng.uniform(0.0, 10.0)});
    }
    const auto report = scheduler.run(std::move(jobs));

    ASSERT_EQ(report.jobs.size(), sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      check_outcome_invariants("conservation", report.jobs[i], sizes[i]);
      if (report.jobs[i].result.completed) {
        EXPECT_EQ(report.jobs[i].result.goodput_bytes(), sizes[i]);
      }
    }
    EXPECT_TRUE(report.accounting_consistent());
    EXPECT_EQ(report.power_cap_violations, 0);
  }
}

TEST(FuzzRobustness, SameSeedIsBitReproducible) {
  for (std::uint64_t seed : {3ull, 7ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto a = run_fuzz_schedule(seed).report;
    const auto b = run_fuzz_schedule(seed).report;
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.deferrals, b.deferrals);
    EXPECT_EQ(a.total_bytes, b.total_bytes);
    // Bitwise, not approximate: the whole pipeline is deterministic.
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.total_energy, b.total_energy);
    EXPECT_EQ(a.peak_power, b.peak_power);
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
      EXPECT_EQ(a.jobs[i].result.bytes, b.jobs[i].result.bytes);
      EXPECT_EQ(a.jobs[i].result.duration, b.jobs[i].result.duration);
      EXPECT_EQ(a.jobs[i].result.end_system_energy,
                b.jobs[i].result.end_system_energy);
      EXPECT_EQ(a.jobs[i].attempts, b.jobs[i].attempts);
      EXPECT_EQ(a.jobs[i].recovery.events.size(), b.jobs[i].recovery.events.size());
    }
  }
}

// --- failover battery -------------------------------------------------------
// Random flap schedules over a multipath scheduler: alternate routes, per-site
// power caps, and path-targeted brownout windows drawn from the seed. The
// invariants must hold no matter where the storm lands or how often tenants
// migrate.

FuzzRun run_fuzz_failover(std::uint64_t seed) {
  Rng rng(seed);
  const auto tb = tiny_xsede();

  SchedulerPolicy policy;
  policy.max_concurrent = static_cast<int>(rng.uniform_int(2, 6));
  policy.max_queue_depth = static_cast<int>(rng.uniform_int(2, 8));
  policy.supervision.attempt_deadline = rng.uniform(20.0, 150.0);
  policy.supervision.max_attempts = static_cast<int>(rng.uniform_int(3, 8));
  policy.supervision.degrade_after = 1;
  policy.horizon = 24.0 * 3600;

  const int n_paths = static_cast<int>(rng.uniform_int(2, 3));
  policy.paths.add({"p0", tb.env.path, tb.env.route, 0});
  for (int p = 1; p < n_paths; ++p) {
    net::PathSpec alt = tb.env.path;
    alt.rtt *= rng.uniform(1.2, 2.0);
    policy.paths.add({"p" + std::to_string(p), alt, net::futuregrid_route(), p});
  }
  const Watts peak = session_peak_power_bound(tb.env);
  for (int p = 0; p < n_paths; ++p) {
    policy.path_power_caps.push_back(peak * rng.uniform(1.2, 3.0));
  }
  if (rng.uniform01() < 0.5) policy.power_cap = peak * rng.uniform(2.0, 5.0);

  // The flap schedule: per-path brownout windows, non-overlapping per path
  // (windows of different paths may overlap freely — that is a real storm).
  for (int p = 0; p < n_paths; ++p) {
    Seconds at = rng.uniform(2.0, 30.0);
    const int windows = static_cast<int>(rng.uniform_int(0, 3));
    for (int w = 0; w < windows; ++w) {
      const Seconds dur = rng.uniform(5.0, 40.0);
      policy.link_brownouts.push_back({at, dur, rng.uniform(0.0, 0.5), p});
      at += dur + rng.uniform(1.0, 10.0);
    }
  }

  Scheduler scheduler(tb, gbps(7.0), policy, fast_cfg());
  scheduler.set_fault_plan(fuzz_faults(rng));

  std::vector<SchedulerJob> jobs;
  FuzzRun run;
  const int n = static_cast<int>(rng.uniform_int(4, 10));
  Seconds at = 0.0;
  for (int i = 0; i < n; ++i) {
    auto job = fuzz_job(rng, i);
    run.dataset_bytes.push_back(job.dataset.total_bytes());
    jobs.push_back({std::move(job), at});
    at += rng.uniform(0.0, 20.0);
  }
  run.report = scheduler.run(std::move(jobs));
  return run;
}

TEST(FuzzRobustness, FailoverInvariantsHoldAcrossFlapSchedules) {
  for (std::uint64_t seed = 61; seed <= 68; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto run = run_fuzz_failover(seed);
    const auto& report = run.report;

    EXPECT_TRUE(report.accounting_consistent());
    // Per-site caps are hard invariants under any flap schedule.
    EXPECT_EQ(report.power_cap_violations, 0);

    ASSERT_EQ(report.jobs.size(), run.dataset_bytes.size());
    int migrations = 0;
    for (std::size_t i = 0; i < report.jobs.size(); ++i) {
      const auto& out = report.jobs[i];
      check_outcome_invariants("failover", out, run.dataset_bytes[i]);
      // A migration is a re-dispatch, so it can never outnumber attempts,
      // and a placement index is always a real PathSet entry.
      EXPECT_LE(out.migrations, out.attempts);
      EXPECT_GE(out.migrations, 0);
      EXPECT_GE(out.path, 0);
      migrations += out.migrations;
    }
    EXPECT_EQ(report.migrations, migrations);
  }
}

TEST(FuzzRobustness, FailoverSameSeedIsBitReproducible) {
  for (std::uint64_t seed : {62ull, 66ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto a = run_fuzz_failover(seed).report;
    const auto b = run_fuzz_failover(seed).report;
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.migrations, b.migrations);
    EXPECT_EQ(a.total_bytes, b.total_bytes);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.total_energy, b.total_energy);
    EXPECT_EQ(a.peak_power, b.peak_power);
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
      EXPECT_EQ(a.jobs[i].result.bytes, b.jobs[i].result.bytes);
      EXPECT_EQ(a.jobs[i].result.duration, b.jobs[i].result.duration);
      EXPECT_EQ(a.jobs[i].result.end_system_energy,
                b.jobs[i].result.end_system_energy);
      EXPECT_EQ(a.jobs[i].migrations, b.jobs[i].migrations);
      EXPECT_EQ(a.jobs[i].path, b.jobs[i].path);
      EXPECT_EQ(a.jobs[i].recovery.events.size(), b.jobs[i].recovery.events.size());
    }
  }
}

TEST(FuzzRobustness, SupervisorInvariantsHoldAcrossSeeds) {
  const auto tb = tiny_xsede();
  for (std::uint64_t seed = 41; seed <= 46; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);

    SupervisorPolicy policy;
    policy.attempt_deadline = rng.uniform(20.0, 200.0);
    policy.max_attempts = static_cast<int>(rng.uniform_int(2, 6));
    policy.degrade_after = static_cast<int>(rng.uniform_int(1, 2));

    TransferService service(tb, gbps(7.0), fast_cfg());
    service.set_fault_plan(fuzz_faults(rng));
    service.set_supervisor(policy);
    const auto job = fuzz_job(rng, static_cast<int>(seed));
    const auto outcome = service.run_queue({job}).jobs.front();

    EXPECT_LE(outcome.attempts, policy.max_attempts);
    EXPECT_GE(outcome.attempts, 1);
    if (!outcome.failed) {
      EXPECT_TRUE(outcome.result.completed);
      // Byte conservation across every checkpointed retry leg.
      EXPECT_EQ(outcome.result.goodput_bytes(), job.dataset.total_bytes());
    } else {
      EXPECT_EQ(outcome.recovery.count(RecoveryAction::kGiveUp), 1);
    }
    // Every resume beyond the first attempt is audited.
    EXPECT_EQ(outcome.recovery.count(RecoveryAction::kResume),
              outcome.attempts - 1);
  }
}

// --- link arbiter at fleet scale ------------------------------------------
// These fuzz rounds push the arbiter to 10^4-10^5 demands submitted as
// groups (many tenant slices, heavy duplicate clusters, a dose of degenerate
// entries) and require the joint allocation to stay bitwise equal to the
// pinned reference loop run on the plain concatenation.

struct ArbiterFuzzRound {
  double capacity = 0.0;
  std::vector<std::vector<net::DemandGroup>> tenants;
};

ArbiterFuzzRound make_arbiter_round(std::uint64_t seed, std::uint64_t scale) {
  Rng rng(seed);
  ArbiterFuzzRound round;
  const auto tenants = rng.uniform_int(3, 24);
  double agg = 0.0;
  for (std::uint64_t t = 0; t < tenants; ++t) {
    std::vector<net::DemandGroup> groups;
    const auto ng = rng.uniform_int(1, 12);
    for (std::uint64_t g = 0; g < ng; ++g) {
      const double cap = rng.uniform01() < 0.06 ? 0.0 : rng.uniform(1e5, 1e9);
      const double weight =
          rng.uniform01() < 0.06 ? 0.0 : static_cast<double>(rng.uniform_int(1, 8));
      const auto count = rng.uniform_int(1, scale);
      groups.push_back({cap, weight, count});
      agg += cap * static_cast<double>(count);
    }
    round.tenants.push_back(std::move(groups));
  }
  round.capacity = std::max(1e6, agg * rng.uniform(0.05, 1.3));
  return round;
}

/// Run one round through an arbiter (grouped submission) and return the
/// concatenated allocation + total.
std::pair<std::vector<BitsPerSecond>, double> run_arbiter_round(
    const ArbiterFuzzRound& round, net::LinkArbiter& arbiter) {
  arbiter.begin_round(round.capacity);
  for (const auto& groups : round.tenants) arbiter.submit_groups(groups);
  arbiter.allocate();
  std::vector<BitsPerSecond> flat;
  for (std::size_t t = 0; t < round.tenants.size(); ++t) {
    const auto s = arbiter.slice(t);
    flat.insert(flat.end(), s.begin(), s.end());
  }
  return {std::move(flat), arbiter.total()};
}

TEST(FuzzRobustness, ArbiterAtScaleMatchesReferenceBitwise) {
  for (std::uint64_t seed : {71ull, 72ull, 73ull, 74ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    // Counts up to 4000 per group: rounds land in the 10^4-10^5 range.
    const auto round = make_arbiter_round(seed, 4000);
    net::LinkArbiter arbiter;
    const auto [flat, total] = run_arbiter_round(round, arbiter);
    ASSERT_GE(flat.size(), 10000u) << "fuzz shape too small to mean anything";

    std::vector<net::Demand> concat;
    for (const auto& groups : round.tenants) {
      for (const auto& g : groups) {
        concat.insert(concat.end(), static_cast<std::size_t>(g.count),
                      net::Demand{g.cap, g.weight});
      }
    }
    net::FairShareScratch scratch;
    std::vector<BitsPerSecond> ref;
    const double ref_total =
        net::fair_share_reference_into(round.capacity, concat, ref, scratch);
    ASSERT_EQ(flat.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(flat[i], ref[i]) << "flow " << i;
    }
    EXPECT_EQ(total, ref_total);
  }
}

TEST(FuzzRobustness, ArbiterSameSeedIsBitReproducibleAcrossJobCounts) {
  // The round is deterministic scalar code, so the worker count of the
  // process around it must be invisible: run the same seeded rounds
  // sequentially and on 4 threads (one arbiter per thread, disjoint rounds
  // — the arbiter is shared-nothing by design) and require bitwise equality.
  static constexpr std::uint64_t kSeeds[] = {81, 82, 83, 84};
  std::vector<std::vector<BitsPerSecond>> sequential(4);
  std::vector<double> sequential_totals(4);
  for (int i = 0; i < 4; ++i) {
    net::LinkArbiter arbiter;
    auto [flat, total] = run_arbiter_round(make_arbiter_round(kSeeds[i], 1500), arbiter);
    sequential[static_cast<std::size_t>(i)] = std::move(flat);
    sequential_totals[static_cast<std::size_t>(i)] = total;
  }

  std::vector<std::vector<BitsPerSecond>> threaded(4);
  std::vector<double> threaded_totals(4);
  {
    std::vector<std::thread> workers;
    for (int i = 0; i < 4; ++i) {
      workers.emplace_back([i, &threaded, &threaded_totals] {
        net::LinkArbiter arbiter;
        auto [flat, total] =
            run_arbiter_round(make_arbiter_round(kSeeds[i], 1500), arbiter);
        threaded[static_cast<std::size_t>(i)] = std::move(flat);
        threaded_totals[static_cast<std::size_t>(i)] = total;
      });
    }
    for (auto& w : workers) w.join();
  }

  for (std::size_t i = 0; i < 4; ++i) {
    SCOPED_TRACE("round " + std::to_string(kSeeds[i]));
    ASSERT_EQ(threaded[i].size(), sequential[i].size());
    EXPECT_EQ(threaded_totals[i], sequential_totals[i]);
    for (std::size_t j = 0; j < sequential[i].size(); ++j) {
      ASSERT_EQ(threaded[i][j], sequential[i][j]) << "flow " << j;
    }
  }

  // And plain same-seed runs agree with themselves, worker count aside.
  for (const std::uint64_t seed : kSeeds) {
    net::LinkArbiter a, b;
    const auto ra = run_arbiter_round(make_arbiter_round(seed, 1500), a);
    const auto rb = run_arbiter_round(make_arbiter_round(seed, 1500), b);
    ASSERT_EQ(ra.first, rb.first);
    EXPECT_EQ(ra.second, rb.second);
  }
}

// --- parallel tick pipeline at fleet scale ---------------------------------
// The master tick's per-tenant phases shard across an exp::TickPool when
// SchedulerPolicy::jobs > 1. The contract is bitwise: at ANY worker count the
// report — every double, every sample window, every recovery event — must be
// byte-identical to the sequential loop. These cases draw 10^2-10^3-tenant
// schedules with faults, preemption pressure and (in the multipath battery)
// per-path brownout storms, and compare scheduler_report_payload strings.

/// One randomized fleet schedule, run at `tick_jobs` pipeline workers. The
/// whole draw happens before the run, from the seed alone, so two calls with
/// different `tick_jobs` schedule byte-identical inputs. `shared` puts every
/// tenant on one set of sinks (SessionConfig::obs) instead of a collector.
/// `hedged` (with `multipath`) cuts attempts short against a job deadline
/// they miss, so aborted tenants race their tails on two paths.
FuzzRun run_parallel_fleet(std::uint64_t seed, int n, int tick_jobs,
                           bool multipath = false,
                           obs::ObsCollector* collector = nullptr,
                           obs::ObsSinks* shared = nullptr, bool hedged = false) {
  Rng rng(seed);
  const auto tb = tiny_xsede();

  SchedulerPolicy policy;
  // Half the fleet runs at once (well past the pool's serial cutoff); the
  // rest queues behind it, so interactive arrivals must preempt their way in.
  policy.max_concurrent = n / 2;
  policy.max_queue_depth = n;
  policy.supervision.attempt_deadline = rng.uniform(120.0, 400.0);
  policy.supervision.max_attempts = 4;
  policy.supervision.degrade_after = 1;
  policy.horizon = 24.0 * 3600;
  policy.jobs = tick_jobs;
  if (hedged) {
    policy.supervision.attempt_deadline = 1.0;
    policy.supervision.max_attempts = 16;
    policy.supervision.job_deadline = 1.5;
    policy.supervision.hedge = true;
  }
  if (rng.uniform01() < 0.5) {
    policy.link_brownouts.push_back({rng.uniform(5.0, 40.0),
                                     rng.uniform(5.0, 30.0),
                                     rng.uniform(0.3, 0.8)});
  }
  if (multipath) {
    const int n_paths = static_cast<int>(rng.uniform_int(2, 3));
    policy.paths.add({"p0", tb.env.path, tb.env.route, 0});
    for (int p = 1; p < n_paths; ++p) {
      net::PathSpec alt = tb.env.path;
      alt.rtt *= rng.uniform(1.2, 2.0);
      policy.paths.add({"p" + std::to_string(p), alt, net::futuregrid_route(), p});
    }
    const Watts peak = session_peak_power_bound(tb.env);
    for (int p = 0; p < n_paths; ++p) {
      policy.path_power_caps.push_back(peak * rng.uniform(4.0, 12.0));
      policy.link_brownouts.push_back({rng.uniform(2.0, 20.0),
                                       rng.uniform(3.0, 15.0),
                                       rng.uniform(0.2, 0.6), p});
    }
  }

  proto::SessionConfig cfg = fast_cfg();
  cfg.obs = shared;
  Scheduler scheduler(tb, gbps(7.0), policy, cfg);
  scheduler.set_fault_plan(fuzz_faults(rng));
  if (collector != nullptr) scheduler.set_collector(collector);

  std::vector<SchedulerJob> jobs;
  FuzzRun run;
  Seconds at = 0.0;
  for (int i = 0; i < n; ++i) {
    TransferJob job;
    job.name = "f" + std::to_string(i);
    const int files = static_cast<int>(rng.uniform_int(2, 4));
    for (int f = 0; f < files; ++f) {
      job.dataset.files.push_back(
          {static_cast<Bytes>(rng.uniform_int(16, 64)) * kMB});
    }
    job.policy = fuzz_policy(rng);
    job.sla_percent = rng.uniform(5.0, 40.0);
    job.energy_budget = rng.uniform(5e4, 5e5);
    job.max_channels = 2;
    run.dataset_bytes.push_back(job.dataset.total_bytes());
    jobs.push_back({std::move(job), at});
    // Arrivals far faster than the shared link drains: the fleet piles up
    // to max_concurrent instead of trickling through a handful of slots.
    at += rng.uniform(0.0, 0.05);
  }
  run.report = scheduler.run(std::move(jobs));
  return run;
}

/// ASSERT_EQ on two multi-megabyte payloads prints both in full on failure;
/// this prints the first divergent byte with context instead.
void expect_payloads_equal(const std::string& a, const std::string& b) {
  if (a == b) return;
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  const std::size_t lo = i > 120 ? i - 120 : 0;
  ADD_FAILURE() << "payloads diverge at byte " << i << " (sizes " << a.size()
                << " vs " << b.size() << ")\n  a: ..." << a.substr(lo, 240)
                << "\n  b: ..." << b.substr(lo, 240);
}

TEST(FuzzRobustness, ParallelFleetTickIsBitIdenticalToSequential) {
  // (seed, tenants): two 10^2-scale draws and one pushing toward 10^3.
  const std::pair<std::uint64_t, int> cases[] = {{91, 100}, {92, 100}, {93, 300}};
  for (const auto& [seed, n] : cases) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " n " + std::to_string(n));
    const auto seq = run_parallel_fleet(seed, n, 1);
    const auto par = run_parallel_fleet(seed, n, 4);
    expect_payloads_equal(scheduler_report_payload(seq.report),
                          scheduler_report_payload(par.report));
    // The schedule must actually exercise the machinery it claims to test.
    EXPECT_GE(par.report.max_concurrent_observed, 16);
    EXPECT_TRUE(par.report.accounting_consistent());
    ASSERT_EQ(par.report.jobs.size(), par.dataset_bytes.size());
    for (std::size_t i = 0; i < par.report.jobs.size(); ++i) {
      check_outcome_invariants("parallel fleet", par.report.jobs[i],
                               par.dataset_bytes[i]);
    }
  }
}

TEST(FuzzRobustness, ParallelFleetMultipathIsBitIdenticalToSequential) {
  for (const std::uint64_t seed : {101ull, 102ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto seq = run_parallel_fleet(seed, 120, 1, /*multipath=*/true);
    const auto par = run_parallel_fleet(seed, 120, 4, /*multipath=*/true);
    expect_payloads_equal(scheduler_report_payload(seq.report),
                          scheduler_report_payload(par.report));
    EXPECT_GE(par.report.max_concurrent_observed, 16);
    EXPECT_EQ(par.report.power_cap_violations, 0);
  }
}

TEST(FuzzRobustness, ParallelFleetHedgedIsBitIdenticalToSequential) {
  // Hedge races in a fleet: a race's second leg publishes into its tenant's
  // slot, so the tick runs serially while any race is live and sharded
  // otherwise. Reports and decision exports must not see the difference.
  obs::ObsCollector seq_obs;
  obs::ObsCollector par_obs;
  const auto seq = run_parallel_fleet(141, 48, 1, true, &seq_obs, nullptr, true);
  const auto par = run_parallel_fleet(141, 48, 4, true, &par_obs, nullptr, true);
  expect_payloads_equal(scheduler_report_payload(seq.report),
                        scheduler_report_payload(par.report));
  const auto decisions = [](const obs::ObsCollector& c) {
    std::ostringstream os;
    c.write_decisions_json(os);
    return os.str();
  };
  expect_payloads_equal(decisions(seq_obs), decisions(par_obs));

  EXPECT_GE(par.report.max_concurrent_observed, 16);
  EXPECT_TRUE(par.report.accounting_consistent());
  int races = 0;
  for (std::size_t i = 0; i < par.report.jobs.size(); ++i) {
    const auto& out = par.report.jobs[i];
    races += out.hedge_legs / 2;
    EXPECT_LE(out.hedge_legs, 2);
    EXPECT_GE(out.hedge_energy, 0.0);
    check_outcome_invariants("hedged fleet", out, par.dataset_bytes[i]);
  }
  EXPECT_GE(races, 1);
}

TEST(FuzzRobustness, ParallelFleetSameSeedIsBitReproducible) {
  // Two parallel runs of the same draw: the pool's nondeterministic shard
  // interleaving must never reach the report.
  const auto a = run_parallel_fleet(111, 150, 4);
  const auto b = run_parallel_fleet(111, 150, 4);
  expect_payloads_equal(scheduler_report_payload(a.report),
                        scheduler_report_payload(b.report));
}

TEST(FuzzRobustness, ParallelFleetObsExportsMatchSequential) {
  // With a collector attached, every tenant publishes trace counters and
  // decisions into its own slot from inside the (parallel) tick phases. The
  // merged exports — trace, metrics snapshot, decision log — must still be
  // byte-identical to the sequential run's.
  obs::ObsCollector seq_obs;
  obs::ObsCollector par_obs;
  const auto seq = run_parallel_fleet(121, 100, 1, false, &seq_obs);
  const auto par = run_parallel_fleet(121, 100, 4, false, &par_obs);
  expect_payloads_equal(scheduler_report_payload(seq.report),
                        scheduler_report_payload(par.report));

  const auto dump = [](const obs::ObsCollector& c) {
    std::ostringstream trace, metrics, decisions;
    c.write_chrome_trace(trace);
    c.write_metrics_json(metrics);
    c.write_decisions_json(decisions);
    return trace.str() + "\n" + metrics.str() + "\n" + decisions.str();
  };
  const std::string a = dump(seq_obs);
  const std::string b = dump(par_obs);
  EXPECT_GT(a.size(), 2u);
  expect_payloads_equal(a, b);
}

TEST(FuzzRobustness, ParallelFleetSharedSinksMatchSequential) {
  // Without a collector every tenant writes one shared trace and decision
  // log, which are single-writer: the pool must stay disengaged however many
  // tenants run (tick_pool()'s gate), so the sharded prepare and commit
  // phases never race on them. The report and all three exports must be
  // byte-identical to the sequential run's.
  struct Shared {
    obs::MetricsRegistry metrics;
    obs::TraceBuffer trace;
    obs::DecisionLog decisions;
    obs::ObsSinks sinks{&metrics, &trace, &decisions};
    std::string dump() const {
      std::ostringstream t, m, d;
      obs::write_chrome_trace(t, {{"fleet", &trace}});
      metrics.write_json(m);
      decisions.write_json(d);
      return t.str() + "\n" + m.str() + "\n" + d.str();
    }
  };
  Shared seq_obs;
  Shared par_obs;
  const auto seq = run_parallel_fleet(131, 100, 1, false, nullptr, &seq_obs.sinks);
  const auto par = run_parallel_fleet(131, 100, 4, false, nullptr, &par_obs.sinks);
  EXPECT_GE(par.report.max_concurrent_observed, 16);
  expect_payloads_equal(scheduler_report_payload(seq.report),
                        scheduler_report_payload(par.report));
  EXPECT_GT(seq_obs.trace.events().size(), 0u);
  EXPECT_FALSE(seq_obs.decisions.empty());
  expect_payloads_equal(seq_obs.dump(), par_obs.dump());
}

std::string hex_digest(const std::string& bytes) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a64(bytes)));
  return buf;
}

/// "trace <fnv1a64> metrics <fnv1a64> decisions <fnv1a64>" of three exports.
std::string export_digests(const std::ostringstream& trace,
                           const std::ostringstream& metrics,
                           const std::ostringstream& decisions) {
  return "trace " + hex_digest(trace.str()) + " metrics " + hex_digest(metrics.str()) +
         " decisions " + hex_digest(decisions.str());
}

TEST(FuzzRobustness, FleetOutputDigestsArePinned) {
  // The batteries above compare a draw at 4 workers with the same draw at
  // 1; a change to the master tick that moved both alike would pass them.
  // These pins hold both to recorded bytes: the report and, where the draw
  // has sinks, its trace, metrics and decision exports. The shared-sink
  // draw pins the order in which one trace and one decision log receive
  // the tick's records. Re-record a pin only for a deliberate change of
  // behaviour, and say which and why.
  const auto collector_digests = [](const obs::ObsCollector& c) {
    std::ostringstream trace, metrics, decisions;
    c.write_chrome_trace(trace);
    c.write_metrics_json(metrics);
    c.write_decisions_json(decisions);
    return export_digests(trace, metrics, decisions);
  };
  for (const int jobs : {1, 4}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    {
      obs::MetricsRegistry metrics;
      obs::TraceBuffer trace;
      obs::DecisionLog decisions;
      obs::ObsSinks sinks{&metrics, &trace, &decisions};
      const auto run = run_parallel_fleet(131, 100, jobs, false, nullptr, &sinks);
      std::ostringstream t, m, d;
      obs::write_chrome_trace(t, {{"fleet", &trace}});
      metrics.write_json(m);
      decisions.write_json(d);
      EXPECT_EQ(hex_digest(scheduler_report_payload(run.report)), "447e27c34e35e5d0");
      EXPECT_EQ(export_digests(t, m, d),
                "trace 5fbb349f2b65e759 metrics b1c91ee010773b51 decisions 18ef9a9fa9270ed8");
    }
    {
      obs::ObsCollector collector;
      const auto run = run_parallel_fleet(121, 100, jobs, false, &collector);
      EXPECT_EQ(hex_digest(scheduler_report_payload(run.report)), "f2f377513a5555b1");
      EXPECT_EQ(collector_digests(collector),
                "trace 363c0ea64fe7e87b metrics 2283108f2b6aa103 decisions 68f45416de89ffee");
    }
    {
      obs::ObsCollector collector;
      const auto run = run_parallel_fleet(141, 48, jobs, true, &collector, nullptr, true);
      EXPECT_EQ(hex_digest(scheduler_report_payload(run.report)), "da2e439f8b0b956e");
      EXPECT_EQ(collector_digests(collector),
                "trace 42e02f1809d9bae3 metrics 5761a21da2806a1a decisions b60eaf0ca262a5a7");
    }
    const auto run = run_parallel_fleet(101, 120, jobs, /*multipath=*/true);
    EXPECT_EQ(hex_digest(scheduler_report_payload(run.report)), "d49e94f002e03d52");
  }
}

}  // namespace
}  // namespace eadt::exp
