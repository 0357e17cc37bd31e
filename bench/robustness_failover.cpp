// Path-resilience scenarios: transfers that survive the path they started on.
// Four deterministic scenarios exercise the failover layer end to end:
//
//   path_outage      the primary route browns out to zero mid-transfer; the
//                    health monitor turns the stalled goodput into suspicion,
//                    the watchdog checkpoints the session, and it resumes on
//                    the backup route — landed bytes are never re-paid.
//   hedged_deadline  a clean run that still cannot make its interactive
//                    deadline after the first attempt window: the remaining
//                    tail is raced on two paths at once, the first leg to
//                    finish wins, and the other leg's energy since the fork is
//                    charged as hedge double-spend.
//   flap_storm       three site routes brown out in rotation under a
//                    twelve-tenant schedule with per-site power caps; tenants
//                    whose attempts abort mid-flap resume on whichever site is
//                    healthiest, and the measured per-site draw never crosses
//                    any cap.
//   partition_storm  the primary site goes dark for the whole run; everything
//                    placed there before the partition migrates to the
//                    surviving site and completes.
//
// Cells fan out with SweepRunner::parallel_indexed and are collected by
// index, so the record is bit-identical at any --jobs N.
#include <algorithm>
#include <chrono>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exp/scheduler.hpp"
#include "exp/service.hpp"
#include "net/path_set.hpp"
#include "obs/obs.hpp"
#include "proto/faults.hpp"

namespace {

using namespace eadt;

/// One service-level scenario: jobs run back to back under a PathSet, each
/// as a one-tenant schedule.
struct SupScenario {
  std::string name;
  std::vector<exp::TransferJob> jobs;
  std::vector<Bytes> job_bytes;  ///< dataset sizes, index-aligned with jobs
  exp::SupervisorPolicy supervision;
  proto::FaultPlan faults;
  proto::SessionConfig config;
  exp::ServiceReport report;
  double wall_ms = 0.0;
};

/// One scheduler-level scenario: tenants share one simulation across sites.
struct SchedScenario {
  std::string name;
  std::vector<exp::SchedulerJob> jobs;
  std::vector<Bytes> job_bytes;
  exp::SchedulerPolicy policy;
  proto::FaultPlan faults;
  exp::SchedulerReport report;
  double wall_ms = 0.0;
};

exp::FailoverScenarioRecord record_of(const SupScenario& s) {
  exp::FailoverScenarioRecord r;
  r.name = s.name;
  r.jobs = static_cast<int>(s.report.jobs.size());
  r.failed = s.report.failed_jobs;
  r.completed = r.jobs - r.failed;
  for (const auto& out : s.report.jobs) {
    r.attempts += out.attempts;
    r.migrations += out.migrations;
    r.hedge_legs += out.hedge_legs;
    r.hedge_energy_j += out.hedge_energy;
  }
  r.makespan_s = s.report.makespan;
  r.bytes = s.report.total_bytes;
  r.energy_j = s.report.total_energy;
  r.wall_ms = s.wall_ms;
  return r;
}

exp::FailoverScenarioRecord record_of(const SchedScenario& s) {
  exp::FailoverScenarioRecord r;
  r.name = s.name;
  r.jobs = s.report.submitted;
  r.completed = s.report.completed;
  r.failed = s.report.failed;
  for (const auto& out : s.report.jobs) r.attempts += out.attempts;
  r.migrations = s.report.migrations;
  r.power_cap_violations = s.report.power_cap_violations;
  r.makespan_s = s.report.makespan;
  r.bytes = s.report.total_bytes;
  r.energy_j = s.report.total_energy;
  r.wall_ms = s.wall_ms;
  return r;
}

/// Unique file bytes landed across every completed job's legs must equal the
/// sum of those jobs' dataset sizes — the byte-conservation invariant the
/// checkpoint journal guarantees (landed bytes are never re-paid, wasted
/// retransmissions are accounted separately).
template <typename Outcomes>
bool bytes_conserved(const Outcomes& outcomes, const std::vector<Bytes>& sizes) {
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& out = outcomes[i];
    if (out.failed) continue;
    if (out.result.goodput_bytes() != sizes[i]) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);

  const auto base = testbeds::scaled(testbeds::xsede(), opt.scale * 4);
  bench::print_header(base, opt);

  // Distinct per-job datasets from the scaled recipe.
  const auto dataset = [&](std::uint64_t seed) {
    auto tb = base;
    tb.dataset_seed = 91 + seed;
    return tb.make_dataset();
  };

  // Calibration: the shared reference rate, one uncontended kDeadline job
  // (T_fast — the service scenarios' unit) and one uncontended kBalanced
  // job (T_bal — the scheduler scenarios' unit).
  exp::TransferService probe(base, 0.0, {});
  const BitsPerSecond reference_rate = probe.reference_rate();
  Seconds T_fast = 0.0;
  Seconds T_bal = 0.0;
  {
    std::vector<exp::TransferJob> jobs;
    jobs.push_back({"probe_fast", dataset(0), exp::JobPolicy::kDeadline, 0, 0, 8});
    jobs.push_back({"probe_bal", dataset(0), exp::JobPolicy::kBalanced, 0, 0, 4});
    const auto rep = probe.run_queue(jobs);
    T_fast = rep.jobs[0].result.duration;
    T_bal = rep.jobs[1].result.duration;
  }
  const Watts session_peak = exp::session_peak_power_bound(base.env);

  // The route catalogue: the testbed's own path, a backup with a longer
  // detour (same trunk class, higher RTT, different device chain and tariff
  // zone), and a tertiary that is longer still.
  net::PathSet paths2;
  paths2.add({"primary", base.env.path, base.env.route, 0});
  {
    net::PathSpec alt = base.env.path;
    alt.rtt *= 1.5;
    paths2.add({"backup", alt, net::futuregrid_route(), 1});
  }
  net::PathSet paths3 = paths2;
  {
    net::PathSpec alt = base.env.path;
    alt.rtt *= 2.0;
    paths3.add({"tertiary", alt, net::didclab_route(), 2});
  }

  SupScenario outage;
  {  // --- primary path dies mid-transfer ----------------------------------
    outage.name = "path_outage";
    for (int i = 0; i < 2; ++i) {
      outage.jobs.push_back({"out" + std::to_string(i), dataset(10 + i),
                             exp::JobPolicy::kDeadline, 0, 0, 8});
      outage.job_bytes.push_back(outage.jobs.back().dataset.total_bytes());
    }
    outage.supervision.attempt_deadline = 0.9 * T_fast;
    outage.supervision.max_attempts = 6;
    outage.supervision.degrade_after = 4;  // keep the ladder out of the story
    outage.supervision.paths = paths2;
    // Dense sample windows so the stall is observed many times before the
    // watchdog fires, at any --scale.
    outage.config.sample_interval = std::max(T_fast / 48.0, 1e-3);
    // Total brownout of the primary from 35% in, lasting past any horizon;
    // the backup route is untouched (FaultPlan::for_path filters by target).
    outage.faults.brownouts.push_back({0.35 * T_fast, 1e6, 0.0, /*path=*/0});
  }

  SupScenario hedged;
  {  // --- interactive deadline hedged on two paths -------------------------
    hedged.name = "hedged_deadline";
    for (int i = 0; i < 2; ++i) {
      hedged.jobs.push_back({"sla" + std::to_string(i), dataset(20 + i),
                             exp::JobPolicy::kDeadline, 0, 0, 8});
      hedged.job_bytes.push_back(hedged.jobs.back().dataset.total_bytes());
    }
    // Attempt 1 is cut at 70% of the clean duration; the projection then
    // overshoots the 85% deadline and the remaining tail races on both paths,
    // where a leg can finish it inside its own watchdog (at 60% neither leg
    // could, so the race only ever ended by the watchdog).
    hedged.supervision.attempt_deadline = 0.7 * T_fast;
    hedged.supervision.max_attempts = 6;
    hedged.supervision.degrade_after = 4;
    hedged.supervision.paths = paths2;
    hedged.supervision.job_deadline = 0.85 * T_fast;
    hedged.supervision.hedge = true;
    hedged.config.sample_interval = std::max(T_fast / 48.0, 1e-3);
  }

  SchedScenario flap;
  {  // --- rotating brownouts across three capped sites ---------------------
    flap.name = "flap_storm";
    flap.policy.max_concurrent = 9;
    flap.policy.max_queue_depth = 16;
    flap.policy.paths = paths3;
    flap.policy.path_power_caps = {session_peak * 3.0, session_peak * 3.0,
                                   session_peak * 3.0};
    flap.policy.power_cap = session_peak * 8.0;  // cross-site sum binds first
    // Tight enough that a tenant sharing a flapped site cannot finish in one
    // attempt: the abort is what hands it back to placement mid-storm.
    flap.policy.supervision.attempt_deadline = 1.5 * T_bal;
    flap.policy.supervision.max_attempts = 10;
    flap.policy.supervision.degrade_after = 2;
    flap.policy.horizon = 400.0 * T_bal;
    // The storm: each site flaps in turn (windows on one site never overlap).
    flap.policy.link_brownouts.push_back({1.0 * T_bal, 1.5 * T_bal, 0.05, 0});
    flap.policy.link_brownouts.push_back({2.0 * T_bal, 1.5 * T_bal, 0.05, 1});
    flap.policy.link_brownouts.push_back({3.0 * T_bal, 1.0 * T_bal, 0.10, 2});
    flap.policy.link_brownouts.push_back({4.0 * T_bal, 1.0 * T_bal, 0.05, 0});
    flap.faults.stochastic.channel_drop_rate = 0.001;
    flap.faults.seed = 23;
    for (int i = 0; i < 12; ++i) {
      const auto policy =
          i % 4 == 3 ? exp::JobPolicy::kGreen : exp::JobPolicy::kBalanced;
      flap.jobs.push_back({{"flap" + std::to_string(i), dataset(30 + i), policy,
                            0, 0, 4},
                           0.15 * T_bal * i});
      flap.job_bytes.push_back(flap.jobs.back().job.dataset.total_bytes());
    }
  }

  SchedScenario partition;
  {  // --- primary site partitioned for the whole run -----------------------
    partition.name = "partition_storm";
    partition.policy.max_concurrent = 4;
    partition.policy.max_queue_depth = 16;
    partition.policy.paths = paths2;
    partition.policy.path_power_caps = {session_peak * 2.5, session_peak * 2.5};
    partition.policy.supervision.attempt_deadline = 2.5 * T_bal;
    partition.policy.supervision.max_attempts = 12;
    partition.policy.supervision.degrade_after = 3;
    partition.policy.horizon = 500.0 * T_bal;
    partition.policy.link_brownouts.push_back({0.5 * T_bal, 60.0 * T_bal, 0.0, 0});
    for (int i = 0; i < 6; ++i) {
      partition.jobs.push_back({{"part" + std::to_string(i), dataset(50 + i),
                                 exp::JobPolicy::kBalanced, 0, 0, 4},
                                0.1 * T_bal * i});
      partition.job_bytes.push_back(partition.jobs.back().job.dataset.total_bytes());
    }
  }

  const auto collector = bench::make_collector(opt);

  // Four independent cells; each writes only its own slot, so the record is
  // byte-identical at any --jobs N.
  const auto timed = [](double* wall_ms, const std::function<void()>& body) {
    const auto start = std::chrono::steady_clock::now();
    body();
    *wall_ms = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  };
  std::vector<std::function<void()>> cells;
  const auto sup_cell = [&](SupScenario& s, std::size_t slot_base) {
    cells.push_back([&, slot_base] {
      timed(&s.wall_ms, [&] {
        proto::SessionConfig cfg = s.config;
        if (collector) cfg.obs = collector->slot(slot_base, s.name);
        exp::TransferService service(base, reference_rate, cfg);
        service.set_fault_plan(s.faults);
        service.set_supervisor(s.supervision);
        s.report = service.run_queue(s.jobs);
      });
    });
  };
  const auto sched_cell = [&](SchedScenario& s, std::size_t slot_base) {
    cells.push_back([&, slot_base] {
      timed(&s.wall_ms, [&] {
        exp::Scheduler scheduler(base, reference_rate, s.policy);
        scheduler.set_fault_plan(s.faults);
        scheduler.set_collector(collector.get(), slot_base);
        s.report = scheduler.run(s.jobs);
      });
    });
  };
  sup_cell(outage, 0);
  sup_cell(hedged, 64);
  sched_cell(flap, 128);
  sched_cell(partition, 192);

  const auto sweep_start = std::chrono::steady_clock::now();
  exp::SweepRunner::parallel_indexed(
      exp::resolve_jobs(opt.jobs), cells.size(),
      [&](std::size_t i) { cells[i](); });
  const double sweep_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - sweep_start)
                              .count();

  std::vector<exp::FailoverScenarioRecord> records;
  records.push_back(record_of(outage));
  records.push_back(record_of(hedged));
  records.push_back(record_of(flap));
  records.push_back(record_of(partition));

  Table table({"scenario", "jobs", "done", "fail", "attempts", "migrations",
               "hedge legs", "cap viol", "makespan s", "GB", "hedge J"});
  for (const auto& r : records) {
    table.add_row({r.name, Table::num(r.jobs, 0), Table::num(r.completed, 0),
                   Table::num(r.failed, 0), Table::num(r.attempts, 0),
                   Table::num(r.migrations, 0), Table::num(r.hedge_legs, 0),
                   Table::num(r.power_cap_violations, 0),
                   Table::num(r.makespan_s, 0),
                   Table::num(static_cast<double>(r.bytes) / 1e9, 2),
                   Table::num(r.hedge_energy_j, 0)});
  }
  bench::emit(table, opt);

  bool ok = true;
  const auto check = [&](const char* what, bool pass) {
    std::cout << "  " << what << ": " << (pass ? "yes" : "NO") << "\n";
    ok = ok && pass;
  };
  const auto all_completed_sup = [](const SupScenario& s) {
    return s.report.failed_jobs == 0;
  };
  const auto migrations_bounded = [](const exp::FailoverScenarioRecord& r) {
    return r.migrations >= 0 && r.migrations <= r.attempts;
  };
  std::cout << "checks:\n";
  check("outage jobs completed on the backup path",
        all_completed_sup(outage) &&
            std::all_of(outage.report.jobs.begin(), outage.report.jobs.end(),
                        [](const exp::JobOutcome& j) {
                          return j.migrations >= 1 && j.final_path == 1;
                        }));
  check("outage landed bytes equal the dataset (no byte re-paid, none lost)",
        bytes_conserved(outage.report.jobs, outage.job_bytes));
  check("deadline projection hedged the tail on two paths",
        all_completed_sup(hedged) &&
            std::all_of(hedged.report.jobs.begin(), hedged.report.jobs.end(),
                        [](const exp::JobOutcome& j) {
                          return j.hedge_legs == 2 && j.hedge_energy >= 0.0;
                        }));
  check("hedged landed bytes equal the dataset",
        bytes_conserved(hedged.report.jobs, hedged.job_bytes));
  check("flap storm completed every tenant",
        flap.report.accounting_consistent() &&
            flap.report.completed == flap.report.accepted);
  check("flap storm forced at least one cross-site migration",
        flap.report.migrations >= 1);
  check("partition drained every tenant onto the surviving site",
        partition.report.accounting_consistent() &&
            partition.report.completed == partition.report.accepted &&
            partition.report.migrations >= 1);
  check("scheduler landed bytes equal the datasets",
        bytes_conserved(flap.report.jobs, flap.job_bytes) &&
            bytes_conserved(partition.report.jobs, partition.job_bytes));
  check("no per-site power cap was ever exceeded",
        flap.report.power_cap_violations == 0 &&
            partition.report.power_cap_violations == 0);
  check("migrations never exceed attempts",
        std::all_of(records.begin(), records.end(), migrations_bounded));
  std::cout << "\n";

  exp::BenchRecord record;
  record.total_wall_ms = sweep_ms;
  record.failover = std::move(records);
  if (collector) {
    bench::write_obs_outputs(opt, *collector);
    bench::print_histogram_percentiles(opt, *collector);
    record.metrics = collector->metrics().snapshot();
  }
  bench::write_bench_record(opt, std::move(record));

  std::cout << "Scenario times are multiples of T = " << Table::num(T_fast, 1)
            << " s (one uncontended kDeadline job; scheduler scenarios use "
            << Table::num(T_bal, 1)
            << " s, the kBalanced\nequivalent). A migrated job resumes from "
               "its checkpoint journal on the new path —\nlanded bytes are "
               "charged once, and only a hedge race's losing leg is "
               "double-spent.\n";
  return ok ? 0 : 1;
}
