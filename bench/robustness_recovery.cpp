// Supervised recovery sweep: how the watchdog deadline and the failure
// severity shape a job's fate. For each (deadline, severity) cell a kDeadline
// job runs as a supervised service job — checkpointed retries plus the
// degradation ladder — and the table reports the attempts it needed, whether
// the ladder stepped it down, the goodput it salvaged, and the energy
// overhead relative to the clean unsupervised run. The sweep makes the
// central trade visible: tight watchdogs bound tail latency per attempt but
// re-pay per-file overheads on every resumed leg, and under heavy faults
// they push jobs down the ladder to safer, slower operating points.
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exp/service.hpp"
#include "proto/faults.hpp"

int main(int argc, char** argv) {
  using namespace eadt;
  const auto opt = bench::parse_options(argc, argv);

  const auto base = testbeds::scaled(testbeds::xsede(), opt.scale * 4);  // keep runs brisk
  const auto ds = base.make_dataset();
  const int cc = 12;

  // The fault-free run calibrates deadlines and the energy baseline.
  exp::TransferService probe(base, 0.0, {});
  std::vector<exp::TransferJob> probe_jobs;
  probe_jobs.push_back({"clean", ds, exp::JobPolicy::kDeadline, 0, 0, cc});
  const auto clean = probe.run_queue(probe_jobs).jobs[0];
  const Seconds clean_t = clean.result.duration;
  const Joules clean_j = clean.result.end_system_energy;

  struct Severity {
    const char* name;
    proto::FaultPlan plan;
  };
  std::vector<Severity> severities;
  {
    proto::FaultPlan light;
    light.stochastic.channel_drop_rate = 0.02;
    light.seed = 17;
    severities.push_back({"light", light});
  }
  {
    proto::FaultPlan heavy;
    heavy.stochastic.channel_drop_rate = 0.10;
    heavy.stochastic.checksum_failure_prob = 0.005;
    heavy.brownouts.push_back({/*start=*/clean_t * 0.3, /*duration=*/clean_t * 0.3,
                               /*capacity_factor=*/0.4});
    heavy.seed = 17;
    severities.push_back({"heavy", heavy});
  }

  const double deadline_fractions[] = {0.35, 0.6, 1.0};

  std::cout << "Supervised recovery sweep (XSEDE, cc=" << cc
            << "): watchdog deadline x fault severity\n"
            << "clean unsupervised run: " << Table::num(clean_t, 1) << " s, "
            << Table::num(clean_j, 0) << " J\n\n";

  // Supervised cells are not plain algorithm runs, so they use the sweep
  // runner's deterministic fan-out primitive directly: each (severity x
  // deadline) cell owns its service, and rows are rendered in cell order
  // regardless of which worker finished first.
  struct Cell {
    const char* severity = nullptr;
    const proto::FaultPlan* plan = nullptr;
    double deadline = 0.0;
    exp::JobOutcome job;
  };
  std::vector<Cell> cells;
  for (const auto& sev : severities) {
    for (const double frac : deadline_fractions) {
      cells.push_back({sev.name, &sev.plan, clean_t * frac, {}});
    }
  }
  const BitsPerSecond reference_rate = probe.reference_rate();
  const auto sweep_start = std::chrono::steady_clock::now();
  exp::SweepRunner::parallel_indexed(
      exp::resolve_jobs(opt.jobs), cells.size(), [&](std::size_t i) {
        auto& cell = cells[i];
        exp::TransferService service(base, reference_rate, {});
        service.set_fault_plan(*cell.plan);
        exp::SupervisorPolicy policy;
        policy.attempt_deadline = cell.deadline;
        policy.max_attempts = 20;
        policy.degrade_after = 2;
        service.set_supervisor(policy);

        std::vector<exp::TransferJob> jobs;
        jobs.push_back({"swept", ds, exp::JobPolicy::kDeadline, 0, 0, cc});
        cell.job = service.run_queue(jobs).jobs[0];
      });
  const double sweep_ms = std::chrono::duration<double, std::milli>(
      std::chrono::steady_clock::now() - sweep_start).count();

  Table table({"severity", "deadline s", "attempts", "degraded", "done",
               "goodput Mbps", "energy overhead %", "resumes", "rungs"});
  for (const auto& cell : cells) {
    const auto& job = cell.job;
    const double overhead =
        (job.result.end_system_energy - clean_j) / clean_j * 100.0;
    const int rungs =
        job.recovery.count(exp::RecoveryAction::kReduceChannels) +
        job.recovery.count(exp::RecoveryAction::kPolicyFallback);
    table.add_row({cell.severity, Table::num(cell.deadline, 1),
                   Table::num(double(job.attempts), 0),
                   job.recovery.degraded() ? "yes" : "no",
                   job.failed ? "FAILED" : "yes",
                   Table::num(to_mbps(job.result.avg_goodput()), 0),
                   Table::num(overhead, 1),
                   Table::num(
                       double(job.recovery.count(exp::RecoveryAction::kResume)), 0),
                   Table::num(double(rungs), 0)});
  }
  bench::emit(table, opt);

  exp::BenchRecord record;
  record.total_wall_ms = sweep_ms;
  bench::write_bench_record(opt, std::move(record));

  std::cout << "\nDeadlines are fractions (0.35 / 0.6 / 1.0) of the clean run "
               "time; every resumed\nleg re-pays per-file overheads on cold "
               "channels, so tighter watchdogs trade\nenergy for bounded "
               "per-attempt latency. 'rungs' counts degradation-ladder "
               "steps\n(channel reductions + policy fallbacks) the supervisor "
               "took.\n";
  return 0;
}
