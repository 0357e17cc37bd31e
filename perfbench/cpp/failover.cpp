// failover_paths: bench/robustness_failover's four scenarios. path_outage and
// hedged_deadline run through TransferService::run_queue and the Supervisor;
// flap_storm and partition_storm through the multipath Scheduler with
// per-site caps. One pass is a few tens of milliseconds, so a timed cycle
// runs the scenarios once for each of kVariants seeds derived from the
// workload seed (variant 0 is the bench's own input).
#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "net/path_set.hpp"
#include "obs/telemetry.hpp"
#include "testbeds/testbeds.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace eadt;

constexpr int kVariants = 32;

struct SupScenario {
  std::vector<exp::TransferJob> jobs;
  std::vector<Bytes> job_bytes;
  std::unique_ptr<exp::TransferService> service;
};

struct SchedScenario {
  std::vector<exp::SchedulerJob> jobs;
  std::vector<Bytes> job_bytes;
  std::unique_ptr<exp::Scheduler> scheduler;
};

/// One variant's four scenarios, constructed and ready to run.
struct Prepared {
  SupScenario outage;
  SupScenario hedged;
  SchedScenario flap;
  SchedScenario partition;
};

Prepared prepare(std::uint64_t variant, Tracer* tracer) {
  testbeds::Testbed base;
  {
    Span span(tracer, "setup/testbed");
    base = testbeds::xsede();
    base.recipe.total_bytes /= 4;
    for (auto& band : base.recipe.bands) {
      band.max_size = std::max(band.max_size / 4, band.min_size * 2);
    }
  }
  const std::uint64_t data_off = seed_offset(variant, 5);
  const auto dataset = [&](std::uint64_t i) {
    Span span(tracer, "setup/dataset");
    auto tb = base;
    tb.dataset_seed = 91 + i + data_off;
    return tb.make_dataset();
  };

  BitsPerSecond reference_rate = 0.0;
  Seconds T_fast = 0.0;
  Seconds T_bal = 0.0;
  {  // Calibration: reference rate, one kDeadline and one kBalanced job.
    Span span(tracer, "setup/probe");
    exp::TransferService probe(base, 0.0, {});
    reference_rate = probe.reference_rate();
    std::vector<exp::TransferJob> jobs;
    jobs.push_back({"probe_fast", dataset(0), exp::JobPolicy::kDeadline, 0, 0, 8});
    jobs.push_back({"probe_bal", dataset(0), exp::JobPolicy::kBalanced, 0, 0, 4});
    const auto rep = probe.run_queue(jobs);
    T_fast = rep.jobs[0].result.duration;
    T_bal = rep.jobs[1].result.duration;
  }
  const Watts session_peak = exp::session_peak_power_bound(base.env);

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

  Prepared p;
  const auto sup = [&](SupScenario& s, const char* prefix, std::uint64_t first,
                       const exp::SupervisorPolicy& supervision,
                       const proto::FaultPlan& faults) {
    for (int i = 0; i < 2; ++i) {
      s.jobs.push_back({prefix + std::to_string(i), dataset(first + i),
                        exp::JobPolicy::kDeadline, 0, 0, 8});
      s.job_bytes.push_back(s.jobs.back().dataset.total_bytes());
    }
    Span span(tracer, "setup/service");
    proto::SessionConfig config;
    config.sample_interval = std::max(T_fast / 48.0, 1e-3);
    s.service = std::make_unique<exp::TransferService>(base, reference_rate, config);
    s.service->set_fault_plan(faults);
    s.service->set_supervisor(supervision);
  };
  {  // path_outage: the primary browns out to zero at 35% of the transfer.
    exp::SupervisorPolicy supervision;
    supervision.attempt_deadline = 0.9 * T_fast;
    supervision.max_attempts = 6;
    supervision.degrade_after = 4;
    supervision.paths = paths2;
    supervision.health.suspect_phi = 0.45;
    proto::FaultPlan faults;
    faults.brownouts.push_back({0.35 * T_fast, 1e6, 0.0, /*path=*/0});
    sup(p.outage, "out", 10, supervision, faults);
  }
  {  // hedged_deadline: the tail races on two paths for the deadline.
    exp::SupervisorPolicy supervision;
    supervision.attempt_deadline = 0.6 * T_fast;
    supervision.max_attempts = 6;
    supervision.degrade_after = 4;
    supervision.paths = paths2;
    supervision.job_deadline = 0.85 * T_fast;
    supervision.hedge = true;
    sup(p.hedged, "sla", 20, supervision, {});
  }

  const auto sched = [&](SchedScenario& s, const exp::SchedulerPolicy& policy,
                         const proto::FaultPlan& faults) {
    Span span(tracer, "setup/scheduler");
    s.scheduler = std::make_unique<exp::Scheduler>(base, reference_rate, policy);
    s.scheduler->set_fault_plan(faults);
  };
  {  // flap_storm: three capped sites brown out in rotation.
    exp::SchedulerPolicy policy;
    policy.max_concurrent = 9;
    policy.max_queue_depth = 16;
    policy.paths = paths3;
    policy.path_power_caps = {session_peak * 3.0, session_peak * 3.0, session_peak * 3.0};
    policy.power_cap = session_peak * 8.0;
    policy.supervision.attempt_deadline = 1.5 * T_bal;
    policy.supervision.max_attempts = 10;
    policy.supervision.degrade_after = 2;
    policy.horizon = 400.0 * T_bal;
    policy.link_brownouts.push_back({1.0 * T_bal, 1.5 * T_bal, 0.05, 0});
    policy.link_brownouts.push_back({2.0 * T_bal, 1.5 * T_bal, 0.05, 1});
    policy.link_brownouts.push_back({3.0 * T_bal, 1.0 * T_bal, 0.10, 2});
    policy.link_brownouts.push_back({4.0 * T_bal, 1.0 * T_bal, 0.05, 0});
    proto::FaultPlan faults;
    faults.stochastic.channel_drop_rate = 0.001;
    faults.seed = 23 + seed_offset(variant, 6);
    for (int i = 0; i < 12; ++i) {
      const auto pol = i % 4 == 3 ? exp::JobPolicy::kGreen : exp::JobPolicy::kBalanced;
      p.flap.jobs.push_back(
          {{"flap" + std::to_string(i), dataset(30 + i), pol, 0, 0, 4}, 0.15 * T_bal * i});
      p.flap.job_bytes.push_back(p.flap.jobs.back().job.dataset.total_bytes());
    }
    sched(p.flap, policy, faults);
  }
  {  // partition_storm: the primary site is dark for the whole run.
    exp::SchedulerPolicy policy;
    policy.max_concurrent = 4;
    policy.max_queue_depth = 16;
    policy.paths = paths2;
    policy.path_power_caps = {session_peak * 2.5, session_peak * 2.5};
    policy.supervision.attempt_deadline = 2.5 * T_bal;
    policy.supervision.max_attempts = 12;
    policy.supervision.degrade_after = 3;
    policy.horizon = 500.0 * T_bal;
    policy.link_brownouts.push_back({0.5 * T_bal, 60.0 * T_bal, 0.0, 0});
    for (int i = 0; i < 6; ++i) {
      p.partition.jobs.push_back({{"part" + std::to_string(i), dataset(50 + i),
                                   exp::JobPolicy::kBalanced, 0, 0, 4},
                                  0.1 * T_bal * i});
      p.partition.job_bytes.push_back(p.partition.jobs.back().job.dataset.total_bytes());
    }
    sched(p.partition, policy, {});
  }
  return p;
}

/// Canonical text of a ServiceReport: per-job fate and hex-float books.
std::string service_payload(const exp::ServiceReport& r) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const auto& j : r.jobs) {
    os << j.name << " failed=" << j.failed << " attempts=" << j.attempts
       << " migrations=" << j.migrations << " path=" << j.final_path
       << " hedge=" << j.hedge_legs << " hedge_j=" << j.hedge_energy
       << " bytes=" << j.result.bytes << " goodput=" << j.result.goodput_bytes()
       << " dur=" << j.result.duration << " joules=" << j.result.end_system_energy
       << " net_j=" << j.result.network_energy << '\n';
  }
  os << "makespan=" << r.makespan << " bytes=" << r.total_bytes
     << " joules=" << r.total_energy << '\n';
  return os.str();
}

/// Unique bytes landed by every completed job equal its dataset.
template <typename Outcomes>
bool bytes_conserved(const Outcomes& outcomes, const std::vector<Bytes>& sizes) {
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].failed && outcomes[i].result.goodput_bytes() != sizes[i]) return false;
  }
  return outcomes.size() == sizes.size();
}

/// The four scenarios' reports; the per-layer metrics read the last traced
/// pass's.
struct Reports {
  exp::ServiceReport outage;
  exp::ServiceReport hedged;
  exp::SchedulerReport flap;
  exp::SchedulerReport partition;
};

/// One variant's four scenarios: the unit the task percentiles count (the
/// scenarios differ tenfold in cost, so single calls would put the median on
/// the gap between two clusters). The gate: landed bytes equal the datasets,
/// conservative scheduler books with zero cap violations.
Pass run_pass(Prepared& p, obs::TickProfiler* profiler, Tracer* tracer, Reports& last) {
  Pass out;
  Reports r;
  const auto timed = [&](const char* span_name, auto&& body) {
    const auto t0 = Clock::now();
    {
      Span span(tracer, span_name);
      body();
    }
    out.wall_s += seconds_since(t0);
  };
  timed("exp.supervisor/run_queue", [&] { r.outage = p.outage.service->run_queue(p.outage.jobs); });
  timed("exp.supervisor/run_queue", [&] { r.hedged = p.hedged.service->run_queue(p.hedged.jobs); });
  p.flap.scheduler->set_tick_profiler(profiler);
  p.partition.scheduler->set_tick_profiler(profiler);
  timed("exp.scheduler/run", [&] { r.flap = p.flap.scheduler->run(std::move(p.flap.jobs)); });
  timed("exp.scheduler/run",
        [&] { r.partition = p.partition.scheduler->run(std::move(p.partition.jobs)); });
  out.task_ms = {out.wall_s * 1e3};

  out.payload = service_payload(r.outage) + service_payload(r.hedged) +
                exp::scheduler_report_payload(r.flap) +
                exp::scheduler_report_payload(r.partition);
  for (const auto* s : {&r.outage, &r.hedged}) {
    out.attempted += s->jobs.size();
    out.failed += static_cast<std::uint64_t>(s->failed_jobs);
    for (const auto& j : s->jobs) {
      out.ticks += static_cast<std::uint64_t>(std::llround(j.result.duration / 0.1));
    }
  }
  for (const auto* s : {&r.flap, &r.partition}) {
    out.attempted += static_cast<std::uint64_t>(s->submitted);
    out.failed += static_cast<std::uint64_t>(s->failed);
    out.ticks += session_ticks(*s, 0.1);
    out.ok = out.ok && scheduler_books_ok(*s);
  }
  out.ok = out.ok && bytes_conserved(r.outage.jobs, p.outage.job_bytes) &&
           bytes_conserved(r.hedged.jobs, p.hedged.job_bytes) &&
           bytes_conserved(r.flap.jobs, p.flap.job_bytes) &&
           bytes_conserved(r.partition.jobs, p.partition.job_bytes);
  if (tracer != nullptr) last = std::move(r);
  return out;
}

}  // namespace

Outcome run_failover(const RunOptions& opt) {
  obs::MetricsRegistry registry;
  obs::TickProfiler profiler(registry);
  Reports last;
  Workload w;
  w.variants = kVariants;
  w.prepare = [&](std::uint64_t variant, Tracer* tracer) -> Runner {
    auto p = std::make_shared<Prepared>(prepare(variant, tracer));
    return [p, &profiler, &last](Tracer* tr) {
      return run_pass(*p, tr != nullptr ? &profiler : nullptr, tr, last);
    };
  };
  if (!opt.trace) return measure(opt, w);

  Outcome out;
  const int traced = trace_passes(opt, w, out);
  const Tracer& tr = *opt.tracer;
  auto& m = out.metrics;
  sim::SimCounters sim;
  double attempts = 0.0;
  double migrations = 0.0;
  double hedge_legs = 0.0;
  for (const auto* r : {&last.outage, &last.hedged}) {
    for (const auto& j : r->jobs) {
      const auto& c = j.result.sim_counters;
      sim.fired += c.fired;
      sim.ticks += c.ticks;
      sim.cancelled += c.cancelled;
      sim.peak_queue = std::max(sim.peak_queue, c.peak_queue);
      attempts += j.attempts;
      migrations += j.migrations;
      hedge_legs += j.hedge_legs;
      add_recovery_metrics(j.recovery, m);
    }
  }
  for (const auto* r : {&last.flap, &last.partition}) {
    for (const auto& j : r->jobs) add_recovery_metrics(j.recovery, m);
  }
  m["sim.events_fired"] = static_cast<double>(sim.fired);
  m["sim.ticks"] = static_cast<double>(sim.ticks);
  m["sim.cancelled"] = static_cast<double>(sim.cancelled);
  m["sim.peak_queue"] = static_cast<double>(sim.peak_queue);
  m["supervisor.run_queue_ms"] = tr.total_s("exp.supervisor/run_queue") * 1e3 / traced;
  m["supervisor.attempts"] = attempts;
  m["supervisor.migrations"] = migrations;
  m["supervisor.hedge_legs"] = hedge_legs;
  put_scheduler_metrics(profiler_totals(registry, 1, traced),
                        tr.total_s("exp.scheduler/run") / traced, {&last.flap, &last.partition},
                        m);
  m["tick_pool.workers"] = 1;
  return out;
}

}  // namespace perfbench
