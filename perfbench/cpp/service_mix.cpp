// service_mix: bench/service_multitenant's overload_ramp, power_capped and
// tariff_deferral scenarios at --scale 2, in sequence at one tick worker.
// Churn on the control plane (admission, shedding, preemption through the
// checkpoint journal, resume), stochastic faults, brownouts and cap-gated
// dispatch; arbiter rounds stay below the waterfill threshold and the tick
// pool is off. The middle scenario's time depends on the drawn datasets, so a
// timed cycle runs the three for kVariants seeds derived from the workload
// seed (variant 0 is the bench's own input at --scale 2).
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "obs/telemetry.hpp"
#include "power/tariff.hpp"
#include "replay.hpp"
#include "testbeds/testbeds.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace eadt;

constexpr int kVariants = 3;
/// service_multitenant's --scale: the shared testbed's bytes divided by
/// 4 * kScale, each tenant's by kScale. Every scenario is timed in units of
/// T, one uncontended tenant job, so the churn stays the same (8 of 66 shed,
/// 8 checkpointed preemptions and resumes a pass) while a pass takes half as
/// long, and a run holds twice as many cycles to take its median over.
constexpr unsigned kScale = 2;

struct Scenario {
  std::string name;
  std::vector<exp::SchedulerJob> jobs;
  exp::SchedulerPolicy policy;
  proto::FaultPlan faults;
  bool tariffed = false;
  Seconds tariff_start = 0.0;
  std::unique_ptr<obs::TelemetryHub> telemetry;
  std::unique_ptr<obs::TickFlightRecorder> flightrec;
  std::unique_ptr<exp::Scheduler> scheduler;
};

/// Everything one pass needs: the calibrated testbed and the three
/// scenarios with their schedulers constructed.
struct Prepared {
  testbeds::Testbed base;
  BitsPerSecond reference_rate = 0.0;
  Seconds T = 0.0;  ///< one uncontended tenant job
  std::vector<Scenario> scenarios;
};

Prepared prepare(std::uint64_t variant, Tracer* tracer) {
  Prepared p;
  testbeds::Testbed tenant_tb;
  {
    Span span(tracer, "setup/testbed");
    p.base = testbeds::xsede();
    p.base.recipe.total_bytes /= kScale * 4;
    for (auto& band : p.base.recipe.bands) {
      band.max_size = std::max(band.max_size / (kScale * 4), band.min_size * 2);
    }
    tenant_tb = testbeds::xsede();
    tenant_tb.recipe.total_bytes /= kScale;
  }
  const std::uint64_t data_off = seed_offset(variant, 3);
  const auto tenant_dataset = [&](std::uint64_t i) {
    Span span(tracer, "setup/dataset");
    auto tb = tenant_tb;
    tb.dataset_seed = 42 + i + data_off;
    return tb.make_dataset();
  };

  {  // One clean probe calibrates the timeline and the shared reference rate.
    Span span(tracer, "setup/probe");
    exp::TransferService probe(p.base, 0.0, {});
    p.reference_rate = probe.reference_rate();
    std::vector<exp::TransferJob> jobs;
    jobs.push_back({"probe", tenant_dataset(0), exp::JobPolicy::kBalanced, 0, 0, 4});
    p.T = probe.run_queue(jobs).jobs[0].result.duration;
  }
  const Seconds T = p.T;
  const Watts session_peak = exp::session_peak_power_bound(p.base.env);

  {
    Scenario s;
    s.name = "overload_ramp";
    s.policy.max_concurrent = 32;
    s.policy.max_queue_depth = 8;
    s.policy.supervision.attempt_deadline = 120.0 * T;
    s.policy.supervision.max_attempts = 6;
    s.policy.supervision.degrade_after = 1;
    s.policy.horizon = 400.0 * T;
    s.policy.link_brownouts.push_back({3.0 * T, 2.0 * T, 0.35});
    s.policy.link_brownouts.push_back({6.0 * T, 1.5 * T, 0.5});
    s.faults.stochastic.channel_drop_rate = 0.002;
    s.faults.seed = 17 + seed_offset(variant, 4);
    for (int i = 0; i < 32; ++i) {
      const auto policy = i % 4 == 3 ? exp::JobPolicy::kBalanced : exp::JobPolicy::kGreen;
      s.jobs.push_back(
          {{"bg" + std::to_string(i), tenant_dataset(i), policy, 0, 0, 4}, 0.02 * T * i});
    }
    for (int i = 0; i < 16; ++i) {
      const auto policy = i % 4 == 0 ? exp::JobPolicy::kSla : exp::JobPolicy::kDeadline;
      s.jobs.push_back({{"fg" + std::to_string(i), tenant_dataset(32 + i), policy, 2.0, 0, 6},
                        2.0 * T + 0.125 * T * i});
    }
    s.telemetry = std::make_unique<obs::TelemetryHub>(T / 8.0, 8192, 1);
    s.flightrec = std::make_unique<obs::TickFlightRecorder>();
    p.scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "power_capped";
    s.policy.max_concurrent = 8;
    s.policy.max_queue_depth = 16;
    s.policy.power_cap = session_peak * 5.0;
    s.policy.horizon = 400.0 * T;
    for (int i = 0; i < 12; ++i) {
      s.jobs.push_back({{"cap" + std::to_string(i), tenant_dataset(60 + i),
                         exp::JobPolicy::kBalanced, 0, 0, 4},
                        0.1 * T * i});
    }
    p.scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "tariff_deferral";
    s.policy.max_concurrent = 4;
    s.policy.max_queue_depth = 16;
    s.policy.max_defer = 24.0 * 3600;
    s.policy.horizon = 48.0 * 3600 + 400.0 * T;
    s.tariffed = true;
    s.tariff_start = 10.0 * 3600;
    for (int i = 0; i < 6; ++i) {
      s.jobs.push_back({{"night" + std::to_string(i), tenant_dataset(80 + i),
                         exp::JobPolicy::kGreen, 0, 0, 4},
                        60.0 * i});
    }
    p.scenarios.push_back(std::move(s));
  }

  Span span(tracer, "setup/scheduler");
  const power::Tariff tariff = power::Tariff::time_of_use(0.05, {{8.0, 20.0, 0.30}});
  for (auto& s : p.scenarios) {
    s.policy.jobs = 1;
    s.scheduler = std::make_unique<exp::Scheduler>(p.base, p.reference_rate, s.policy);
    s.scheduler->set_fault_plan(s.faults);
    if (s.tariffed) s.scheduler->set_tariff(tariff, s.tariff_start);
    s.scheduler->set_telemetry(s.telemetry.get());
    s.scheduler->set_flight_recorder(s.flightrec.get());
  }
  return p;
}

/// What the per-layer metrics read from the last traced pass.
struct Last {
  std::vector<exp::SchedulerReport> reports;
  std::size_t telemetry_samples = 0;
};

Pass run_pass(Prepared& p, obs::TickProfiler* profiler, Tracer* tracer, Last& last) {
  Pass out;
  std::vector<exp::SchedulerReport> reports;
  const auto start = Clock::now();
  for (auto& s : p.scenarios) {
    s.scheduler->set_tick_profiler(profiler);
    Span span(tracer, "exp.scheduler/run");
    reports.push_back(s.scheduler->run(std::move(s.jobs)));
  }
  out.wall_s = seconds_since(start);
  // The task is the whole pass: the scenarios differ a hundredfold in cost,
  // so per-scenario percentiles would sit on the gap between two clusters.
  out.task_ms = {out.wall_s * 1e3};
  // The gate: conservative books and zero cap violations in every scenario.
  for (const auto& r : reports) {
    out.payload += exp::scheduler_report_payload(r);
    out.ticks += session_ticks(r, 0.1);
    out.attempted += static_cast<std::uint64_t>(r.submitted);
    out.failed += static_cast<std::uint64_t>(r.failed);
    out.shed += static_cast<std::uint64_t>(r.rejected);
    out.ok = out.ok && scheduler_books_ok(r);
  }
  if (tracer != nullptr) {
    last = {std::move(reports), p.scenarios.front().telemetry->size()};
  }
  return out;
}

/// The overload ramp's 32 background tenants, all running at once: the
/// steady state the replay ladder measures, over the first 2 T, before the
/// interactive burst of the real scenario arrives (each tenant needs about
/// 32 T at 32-way sharing, so none finishes inside the window). `p` must
/// outlive the replay.
ReplaySpec ramp_replay(const Prepared& p) {
  const Scenario& ramp = p.scenarios.front();
  ReplaySpec spec;
  spec.env = &p.base.env;
  spec.reference_rate = p.reference_rate;
  spec.config.max_sim_time = ramp.policy.supervision.attempt_deadline;
  spec.faults = ramp.faults;
  spec.horizon = 2.0 * p.T;
  for (const auto& j : ramp.jobs) {
    if (j.job.name.rfind("bg", 0) != 0) continue;
    spec.jobs.push_back(
        {j.job.dataset, j.job.policy, j.job.max_channels, j.job.sla_percent, j.submit_at});
  }
  return spec;
}

}  // namespace

Outcome run_service_mix(const RunOptions& opt) {
  obs::MetricsRegistry registry;
  obs::TickProfiler profiler(registry);
  Last last;
  Workload w;
  w.variants = kVariants;
  w.min_cycles = 1;
  w.prepare = [&](std::uint64_t variant, Tracer* tracer) -> Runner {
    auto p = std::make_shared<Prepared>(prepare(variant, tracer));
    return [p, &profiler, &last](Tracer* tr) {
      return run_pass(*p, tr != nullptr ? &profiler : nullptr, tr, last);
    };
  };
  if (!opt.trace) return measure(opt, w);

  Outcome out;
  const int traced = trace_passes(opt, w, out);
  Tracer& tr = *opt.tracer;
  ReplayStats rs;
  {
    Span root(&tr, "bench/replay");
    std::unique_ptr<Prepared> fresh;
    ReplaySpec spec;
    {
      Span span(&tr, "setup/replay");
      fresh = std::make_unique<Prepared>(prepare(opt.seed * kVariants, nullptr));
      spec = ramp_replay(*fresh);
    }
    rs = replay_rounds(spec, &tr);
  }

  auto& m = out.metrics;
  put_replay_metrics(rs, m);
  std::vector<const exp::SchedulerReport*> reports;
  for (const auto& r : last.reports) {
    reports.push_back(&r);
    for (const auto& job : r.jobs) add_recovery_metrics(job.recovery, m);
  }
  put_scheduler_metrics(profiler_totals(registry, 1, traced),
                        tr.total_s("exp.scheduler/run") / traced, reports, m);
  m["tick_pool.workers"] = 1;
  m["obs.telemetry_samples"] = static_cast<double>(last.telemetry_samples);
  return out;
}

}  // namespace perfbench
