// fleet_1k: bench/service_fleet's 1,000-tenant schedule at --scale 4 on the
// shared XSEDE path, with the telemetry hub and flight recorder that bench
// attaches. The timed region is Scheduler::run, once at min(4, nproc) tick
// workers and once at one. The only workload whose arbiter rounds cross
// kWaterfillThreshold and the only one where the tick pool engages.
#include <algorithm>
#include <initializer_list>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "obs/telemetry.hpp"
#include "replay.hpp"
#include "testbeds/testbeds.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace eadt;

constexpr int kTenants = 1000;
/// service_fleet's --scale: file sizes divided by 4, floored at 4 MB. The
/// whole fleet still piles up (about 1,300 flows a round) but a serial pass
/// takes well under a second instead of about eight, so a run holds a dozen
/// passes and its median rides out the seconds-long slowdowns of a shared
/// host.
constexpr Bytes kScale = 4;
constexpr double kTelemetryStride = 30.0;
constexpr std::size_t kTelemetryRing = 4096;
const BitsPerSecond kReferenceRate = gbps(7.0);

/// bench/service_fleet's schedule at kScale: 2-4 files of 8-40 MB per tenant
/// before scaling, drawn from tenant seed 4242 + i (plus the workload's
/// offset), a policy mix with and without runtime controllers, and slightly
/// staggered arrivals.
std::vector<exp::SchedulerJob> build_fleet(std::uint64_t variant) {
  const std::uint64_t offset = seed_offset(variant, 2);
  std::vector<exp::SchedulerJob> jobs;
  jobs.reserve(kTenants);
  for (int i = 0; i < kTenants; ++i) {
    Rng rng(4242u + static_cast<std::uint64_t>(i) + offset);
    exp::TransferJob job;
    job.name = "t";
    job.name += std::to_string(i);  // not "t" + ...: GCC 12 warns falsely (-Wrestrict)
    const int files = static_cast<int>(rng.uniform_int(2, 4));
    for (int f = 0; f < files; ++f) {
      const Bytes raw = static_cast<Bytes>(rng.uniform_int(8, 40)) * kMB;
      job.dataset.files.push_back({std::max(raw / kScale, 4 * kMB)});
    }
    switch (i % 3) {
      case 0: job.policy = exp::JobPolicy::kBalanced; break;
      case 1: job.policy = exp::JobPolicy::kGreen; break;
      default: job.policy = exp::JobPolicy::kDeadline; break;
    }
    job.max_channels = 2;
    jobs.push_back({std::move(job), 0.005 * i});
  }
  return jobs;
}

proto::SessionConfig fleet_config() {
  proto::SessionConfig cfg;
  cfg.sample_interval = 1.0;
  return cfg;
}

/// One Scheduler::run, constructed and ready.
struct Prepared {
  std::vector<exp::SchedulerJob> jobs;
  std::unique_ptr<obs::TelemetryHub> telemetry;
  std::unique_ptr<obs::TickFlightRecorder> flightrec;
  std::unique_ptr<exp::Scheduler> scheduler;
};

Prepared prepare(const testbeds::Testbed& base, std::uint64_t variant, int workers,
                 Tracer* tracer) {
  Prepared p;
  {
    Span span(tracer, "setup/schedule");
    p.jobs = build_fleet(variant);
  }
  Span span(tracer, "setup/scheduler");
  exp::SchedulerPolicy policy;
  policy.max_concurrent = kTenants;
  policy.max_queue_depth = kTenants;
  policy.horizon = 24.0 * 3600;
  policy.jobs = workers;
  p.telemetry = std::make_unique<obs::TelemetryHub>(kTelemetryStride, kTelemetryRing, 1);
  p.flightrec = std::make_unique<obs::TickFlightRecorder>();
  p.scheduler = std::make_unique<exp::Scheduler>(base, kReferenceRate, policy, fleet_config());
  p.scheduler->set_telemetry(p.telemetry.get());
  p.scheduler->set_flight_recorder(p.flightrec.get());
  return p;
}

struct Ran {
  exp::SchedulerReport report;
  double wall_s = 0.0;
  std::string payload;
  std::string telemetry;
  std::size_t telemetry_samples = 0;
  std::uint64_t flight_triggers = 0;
};

Ran run(Prepared& p, obs::TickProfiler* profiler, Tracer* tracer) {
  p.scheduler->set_tick_profiler(profiler);
  Ran r;
  const auto start = Clock::now();
  {
    Span span(tracer, "exp.scheduler/run");
    r.report = p.scheduler->run(std::move(p.jobs));
  }
  r.wall_s = seconds_since(start);
  r.payload = exp::scheduler_report_payload(r.report);
  r.telemetry = p.telemetry->to_json();
  r.telemetry_samples = p.telemetry->size();
  r.flight_triggers = p.flightrec->triggers();
  return r;
}

/// The parallel and serial runs of one schedule, constructed and ready.
struct Pair {
  Prepared par;
  Prepared ser;
};

/// What the per-layer metrics read from the last traced pass.
struct Last {
  exp::SchedulerReport report;  ///< the parallel run's
  double wall_s = 0.0;
  std::size_t telemetry_samples = 0;
};

}  // namespace

Outcome run_fleet(const RunOptions& opt) {
  const int n_workers = opt.workers;
  // Traced passes profile each worker count into a registry of their own.
  obs::MetricsRegistry reg_n;
  obs::MetricsRegistry reg_1;
  obs::TickProfiler profiler_n(reg_n);
  obs::TickProfiler profiler_1(reg_1);
  Last last;

  // The gate: parallel and serial reports and telemetry exports byte-equal,
  // conservative books, every tenant completed, a quiet flight recorder.
  const auto run_pair = [&](Pair& pair, Tracer* tr) {
    const bool traced = tr != nullptr;
    Ran par = run(pair.par, traced ? &profiler_n : nullptr, tr);
    const Ran ser = run(pair.ser, traced ? &profiler_1 : nullptr, tr);
    Pass p;
    p.wall_s = par.wall_s;
    p.serial_wall_s = ser.wall_s;
    p.task_ms = {par.wall_s * 1e3, ser.wall_s * 1e3};
    p.ticks = session_ticks(par.report, fleet_config().tick);
    p.payload = par.payload + par.telemetry;
    p.ok = par.payload == ser.payload && par.telemetry == ser.telemetry &&
           scheduler_books_ok(par.report) && scheduler_books_ok(ser.report) &&
           par.report.completed == par.report.submitted && par.report.rejected == 0 &&
           par.flight_triggers == 0 && par.report.submitted == kTenants;
    for (const Ran* r : std::initializer_list<const Ran*>{&par, &ser}) {
      p.attempted += static_cast<std::uint64_t>(r->report.submitted);
      p.failed += static_cast<std::uint64_t>(r->report.failed);
      p.shed += static_cast<std::uint64_t>(r->report.rejected);
    }
    if (traced) last = {std::move(par.report), par.wall_s, par.telemetry_samples};
    return p;
  };

  Workload w;
  w.variants = 1;
  w.min_cycles = 5;
  w.prepare = [&](std::uint64_t variant, Tracer* tracer) -> Runner {
    testbeds::Testbed base;
    {
      Span span(tracer, "setup/testbed");
      base = testbeds::xsede();
    }
    auto pair = std::make_shared<Pair>(
        Pair{prepare(base, variant, n_workers, tracer), prepare(base, variant, 1, tracer)});
    return [pair, &run_pair](Tracer* tr) { return run_pair(*pair, tr); };
  };
  if (!opt.trace) {
    Outcome out = measure(opt, w);
    out.notes.push_back("tick workers " + std::to_string(n_workers) + " + 1");
    return out;
  }

  Outcome out;
  const int traced = trace_passes(opt, w, out);
  Tracer& tr = *opt.tracer;
  ReplayStats rs;
  {
    Span root(&tr, "bench/replay");
    const testbeds::Testbed base = testbeds::xsede();
    ReplaySpec spec;
    {
      Span span(&tr, "setup/replay");
      spec.env = &base.env;
      spec.reference_rate = kReferenceRate;
      spec.config = fleet_config();
      spec.horizon = 24.0 * 3600;
      for (auto& j : build_fleet(opt.seed)) {
        spec.jobs.push_back({std::move(j.job.dataset), j.job.policy, j.job.max_channels,
                             j.job.sla_percent, j.submit_at});
      }
    }
    rs = replay_rounds(spec, &tr);
  }

  auto& m = out.metrics;
  put_replay_metrics(rs, m);
  for (const auto& job : last.report.jobs) add_recovery_metrics(job.recovery, m);
  const ProfilerTotals prof_n = profiler_totals(reg_n, n_workers, traced);
  const ProfilerTotals prof_1 = profiler_totals(reg_1, 1, traced);
  put_scheduler_metrics(prof_n, last.wall_s, {&last.report}, m);
  m["tick_pool.workers"] = n_workers;
  const double par_phases = prof_n.prepare_us + prof_n.apply_us;
  if (par_phases > 0.0) {
    m["tick_pool.phase_speedup"] = (prof_1.prepare_us + prof_1.apply_us) / par_phases;
  }
  const double ops_sum =
      std::accumulate(prof_n.worker_ops.begin(), prof_n.worker_ops.end(), 0.0);
  if (n_workers > 1 && ops_sum > 0.0) {
    m["tick_pool.imbalance"] =
        *std::max_element(prof_n.worker_ops.begin(), prof_n.worker_ops.end()) /
        (ops_sum / n_workers);
  }
  m["obs.telemetry_samples"] = static_cast<double>(last.telemetry_samples);
  return out;
}

}  // namespace perfbench
