// A transfer service: the provider-side layer the paper's SLA discussion
// implies. Jobs (dataset + policy) queue on a testbed whose DTNs run one
// transfer at a time; each job picks its algorithm from its policy:
//
//   kDeadline     — ProMC at full concurrency (fastest finish)
//   kGreen        — MinE (least energy, no performance promise)
//   kBalanced     — HTEE (best throughput/energy operating point)
//   kSla          — SLAEE against a fraction of the service's reference rate
//   kEnergyBudget — EnergyBudgetController under a per-job Joule cap
//
// The service reports per-job and aggregate outcomes (makespan, energy,
// achieved rates) plus queue ordering support (FIFO / shortest-bytes-first /
// green-jobs-first), which is what a provider tunes against its power bill.
#pragma once

#include <string>
#include <vector>

#include <optional>

#include "exp/supervisor.hpp"
#include "power/tariff.hpp"
#include "proto/faults.hpp"
#include "proto/session.hpp"
#include "testbeds/testbeds.hpp"

namespace eadt::exp {

enum class JobPolicy { kDeadline, kGreen, kBalanced, kSla, kEnergyBudget };

[[nodiscard]] const char* to_string(JobPolicy policy) noexcept;

struct TransferJob {
  std::string name;
  proto::Dataset dataset;
  JobPolicy policy = JobPolicy::kBalanced;
  /// kSla: required fraction (percent) of the service's reference rate.
  double sla_percent = 90.0;
  /// kEnergyBudget: end-system Joule cap for this job.
  Joules energy_budget = 0.0;
  int max_channels = 12;
};

struct JobOutcome {
  std::string name;
  JobPolicy policy = JobPolicy::kBalanced;
  Seconds queued_at = 0.0;   ///< service-timeline start
  Seconds finished_at = 0.0;
  proto::RunResult result;
  /// True when the job never completed — its last attempt aborted (time
  /// guard / watchdog) or refused to start. A failed job's rates are excluded
  /// from the report's aggregate reference-rate math.
  bool failed = false;
  int attempts = 1;          ///< attempts run (1 = no retry was needed)
  RecoveryLog recovery;      ///< every supervision decision, in order
  bool sla_met = true;       ///< kSla only (and only if completed); true otherwise
  double cost_usd = 0.0;     ///< 0 unless the service has a tariff
  // Path resilience (all zero without a PathSet on the supervisor policy).
  int migrations = 0;        ///< failovers to an alternate path (not retries)
  int final_path = 0;        ///< PathSet index the job finished (or died) on
  int hedge_legs = 0;        ///< tail legs raced for the deadline (0 or 2)
  Joules hedge_energy = 0.0; ///< cancelled leg's energy since the race forked

  [[nodiscard]] double throughput_mbps() const {
    return to_mbps(result.avg_throughput());
  }
};

struct ServiceReport {
  std::vector<JobOutcome> jobs;
  Seconds makespan = 0.0;
  Bytes total_bytes = 0;
  Joules total_energy = 0.0;
  double total_cost_usd = 0.0;         ///< 0 unless the service has a tariff
  BitsPerSecond reference_rate = 0.0;  ///< the ProMC max SLA jobs are scored against
  int failed_jobs = 0;                 ///< jobs whose last attempt still aborted
  /// Mean achieved rate as a fraction of the reference, over *completed* jobs
  /// only — an aborted run's clock-limited "rate" says nothing about the
  /// service and would poison the aggregate.
  double mean_rate_fraction = 0.0;
};

/// A run meets its SLA when it delivers at least this share of the promised
/// rate: the paper's SLAEE lands "within 7 % deviation" of every target.
inline constexpr double kSlaFloor = 0.93;

/// True when `achieved` keeps a promise of `target` within that band.
[[nodiscard]] constexpr bool meets_sla(BitsPerSecond achieved,
                                       BitsPerSecond target) noexcept {
  return achieved >= target * kSlaFloor;
}

/// The site's best case that SLA jobs are scored against: one ProMC run at
/// the testbed's default channel count over its own dataset recipe.
[[nodiscard]] BitsPerSecond probe_reference_rate(const testbeds::Testbed& testbed,
                                                 const proto::SessionConfig& config);

enum class QueueOrder {
  kFifo,
  kShortestFirst,  ///< fewest bytes first (classic makespan heuristic)
  kGreenFirst,     ///< energy-minimising jobs first (off-peak shaping)
};

class TransferService {
 public:
  /// `reference_rate` = 0 measures it (one ProMC run at default channels).
  explicit TransferService(testbeds::Testbed testbed,
                           BitsPerSecond reference_rate = 0.0,
                           proto::SessionConfig config = {});

  /// Run all jobs back to back in the given order. Deterministic.
  [[nodiscard]] ServiceReport run_queue(std::vector<TransferJob> jobs,
                                        QueueOrder order = QueueOrder::kFifo);

  [[nodiscard]] BitsPerSecond reference_rate() const noexcept { return reference_rate_; }

  /// Attach an electricity tariff; job costs are integrated over their slot
  /// in the service timeline, which starts at `queue_start_time` (seconds
  /// since midnight — a 22:00 start puts the queue into the off-peak window).
  void set_tariff(power::Tariff tariff, Seconds queue_start_time = 0.0) {
    tariff_ = std::move(tariff);
    queue_start_time_ = queue_start_time;
  }

  /// Subject every job to this failure workload (default: none). The plan is
  /// replayed per attempt — its event times are attempt-local.
  void set_fault_plan(proto::FaultPlan faults) { faults_ = std::move(faults); }

  /// Enable supervision: per-attempt deadline watchdogs, checkpointed
  /// retries, the degradation ladder, path failover and the hedged tail race
  /// of the job's one-tenant exp::Scheduler schedule. Without this the
  /// service runs each job once and merely reports failures honestly.
  void set_supervisor(SupervisorPolicy policy) { supervisor_ = policy; }

 private:
  [[nodiscard]] JobOutcome run_job(const TransferJob& job) const;

  testbeds::Testbed testbed_;
  BitsPerSecond reference_rate_ = 0.0;
  proto::SessionConfig config_;
  std::optional<power::Tariff> tariff_;
  Seconds queue_start_time_ = 0.0;
  proto::FaultPlan faults_;
  std::optional<SupervisorPolicy> supervisor_;
};

}  // namespace eadt::exp
