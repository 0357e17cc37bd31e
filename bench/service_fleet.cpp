// Fleet-scale tick-pipeline race: one exp::Scheduler carrying ~1,000 tenants
// (200 with --quick, EADT_FLEET_TENANTS overrides, capped at 4,000) on the
// shared XSEDE path, run twice on identical inputs — once with the master
// tick forced sequential (policy.jobs = 1) and once with the parallel tick
// pipeline at --jobs / EADT_JOBS workers.
//
// The bench is a *correctness gate first, timing second*: the two reports are
// compared bit for bit (scheduler_report_payload — every per-job double in
// hex-float, every sample window, every recovery event) before any speedup
// is reported, and a mismatch fails the run regardless of how fast it was.
// The timing half records an eadt-bench-v1 MicroSample named
// "fleet_tick_pipeline" whose `speedup` field is the CI tripwire: the perf
// workflow requires >= 1.3x at 4 workers on machines with >= 4 cores, below
// the 1.53-2.93x (median 2.11x) of ten runs on a 4-vCPU VM (docs/MODEL.md
// §16). The
// serial arbiter rounds and tick commit bound the gain, so 4 workers never
// give 4x.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "exp/scheduler.hpp"
#include "exp/service.hpp"
#include "obs/obs.hpp"
#include "obs/openmetrics.hpp"
#include "obs/telemetry.hpp"
#include "util/rng.hpp"

namespace {

using namespace eadt;

/// Tenant count: --quick = 200 (CI smoke / TSan), default 1000, and
/// EADT_FLEET_TENANTS pushes toward the 4,000-tenant ceiling for soak runs.
int fleet_size(const bench::Options& opt) {
  int n = opt.quick ? 200 : 1000;
  if (const char* env = std::getenv("EADT_FLEET_TENANTS")) {
    const int v = std::atoi(env);
    if (v > 0) n = v;
  }
  return std::clamp(n, 16, 4000);
}

/// The same deterministic schedule for every run of a given (n, scale):
/// small per-tenant datasets (2-4 files, 8-40 MB before --scale) drawn from
/// per-tenant seeds, a policy mix that exercises plans with and without
/// runtime controllers, and slightly staggered arrivals.
std::vector<exp::SchedulerJob> build_fleet(int n, unsigned scale) {
  std::vector<exp::SchedulerJob> jobs;
  jobs.reserve(static_cast<std::size_t>(n));
  // The 4 MB floor keeps the drain time ahead of the arrival ramp even at
  // --quick scale, so the fleet actually piles up instead of trickling
  // through a few dozen concurrent sessions.
  const Bytes floor_bytes = 4 * kMB;
  for (int i = 0; i < n; ++i) {
    Rng rng(4242u + static_cast<std::uint64_t>(i));
    exp::TransferJob job;
    job.name = "t" + std::to_string(i);
    const int files = static_cast<int>(rng.uniform_int(2, 4));
    for (int f = 0; f < files; ++f) {
      const Bytes raw = static_cast<Bytes>(rng.uniform_int(8, 40)) * kMB;
      job.dataset.files.push_back({std::max(raw / std::max(1u, scale), floor_bytes)});
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

/// Telemetry rides every fleet run: one sample per 30 sim-seconds into a
/// 4096-entry ring, single-site (the fleet shares one path). Both the
/// sequential reference and the parallel run carry a hub so their exports
/// can be raced bitwise — the telemetry analogue of the payload compare.
constexpr double kTelemetryStride = 30.0;
constexpr std::size_t kTelemetryRing = 4096;

struct FleetRun {
  exp::SchedulerReport report;
  std::string payload;   ///< scheduler_report_payload — the bitwise identity
  double wall_ms = 0.0;  ///< run() only; schedule construction is untimed
  obs::TelemetryHub telemetry{kTelemetryStride, kTelemetryRing, /*site_count=*/1};
  obs::TickFlightRecorder flightrec;
};

void run_fleet(const testbeds::Testbed& base, int n, unsigned scale,
               int jobs_n, obs::ObsCollector* collector,
               obs::TickProfiler* profiler, FleetRun& out) {
  exp::SchedulerPolicy policy;
  policy.max_concurrent = n;  // the whole fleet ticks concurrently
  policy.max_queue_depth = n;
  policy.horizon = 24.0 * 3600;
  policy.jobs = jobs_n;
  proto::SessionConfig cfg;
  cfg.sample_interval = 1.0;

  auto schedule = build_fleet(n, scale);
  exp::Scheduler scheduler(base, gbps(7.0), policy, cfg);
  scheduler.set_collector(collector);
  scheduler.set_telemetry(&out.telemetry);
  scheduler.set_flight_recorder(&out.flightrec);
  scheduler.set_tick_profiler(profiler);
  const auto start = std::chrono::steady_clock::now();
  out.report = scheduler.run(std::move(schedule));
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  out.payload = exp::scheduler_report_payload(out.report);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);

  const auto base = testbeds::xsede();
  bench::print_header(base, opt);

  const int n = fleet_size(opt);
  const int jobs = exp::resolve_jobs(opt.jobs);
  const auto collector = bench::make_collector(opt);

  // Sequential reference first, then the parallel pipeline. The collector —
  // when observability was requested — rides the parallel run, the one whose
  // obs paths the pipeline must keep single-writer; so do the wall-clock tick
  // profiler and the scrape listener. Telemetry hubs ride both runs so the
  // sim-time series can be raced bitwise alongside the report payload.
  // The profiler registers its families up front, so a scrape that lands
  // before the parallel run still sees well-formed TYPE lines; the listener
  // binds before the sequential reference to give scrapers the widest window.
  std::unique_ptr<obs::TickProfiler> profiler;
  if (collector) profiler = std::make_unique<obs::TickProfiler>(collector->metrics());
  std::unique_ptr<obs::MetricsHttpServer> server;
  if (opt.metrics_listen >= 0 && collector) {
    obs::MetricsRegistry& registry = collector->metrics();
    server = std::make_unique<obs::MetricsHttpServer>(
        opt.metrics_listen, [&registry] { return registry.snapshot(); });
    if (server->running()) {
      std::cout << "serving /metrics on 127.0.0.1:" << server->port() << "\n";
    } else {
      std::cerr << "metrics listener failed (" << server->error()
                << "); run proceeds unscraped\n";
    }
  }

  FleetRun seq;
  run_fleet(base, n, opt.scale, 1, nullptr, nullptr, seq);
  FleetRun par;
  run_fleet(base, n, opt.scale, jobs, collector.get(), profiler.get(), par);
  if (server && server->running()) {
    server->stop();
    std::cout << "metrics listener served " << server->requests() << " scrape(s)\n";
  }

  const bool identical = seq.payload == par.payload;
  const bool telemetry_identical = seq.telemetry.to_json() == par.telemetry.to_json();
  const double speedup = par.wall_ms > 0.0 ? seq.wall_ms / par.wall_ms : 0.0;

  Table table({"mode", "jobs", "tenants", "done", "fail", "max cc", "GB",
               "makespan s", "wall ms"});
  const auto row = [&](const char* mode, int j, const FleetRun& r) {
    table.add_row({mode, Table::num(j, 0), Table::num(r.report.submitted, 0),
                   Table::num(r.report.completed, 0),
                   Table::num(r.report.failed, 0),
                   Table::num(r.report.max_concurrent_observed, 0),
                   Table::num(static_cast<double>(r.report.total_bytes) /
                                  static_cast<double>(kGB), 2),
                   Table::num(r.report.makespan, 1),
                   Table::num(r.wall_ms, 1)});
  };
  row("sequential", 1, seq);
  row("parallel", jobs, par);
  bench::emit(table, opt);

  bool ok = true;
  const auto check = [&](const char* what, bool pass) {
    std::cout << "  " << what << ": " << (pass ? "yes" : "NO") << "\n";
    ok = ok && pass;
  };
  std::cout << "checks:\n";
  check("parallel report is byte-identical to --jobs 1", identical);
  check("telemetry export is byte-identical to --jobs 1", telemetry_identical);
  check("telemetry sampler recorded the run", par.telemetry.size() > 0);
  check("flight recorder stayed quiet on the clean run",
        par.flightrec.triggers() == 0);
  check("accounting is conservative in both runs",
        seq.report.accounting_consistent() && par.report.accounting_consistent());
  check("every tenant completed",
        par.report.completed == par.report.submitted && par.report.failed == 0 &&
            par.report.rejected == 0);
  check("no power-cap violations", par.report.power_cap_violations == 0);
  std::cout << "\n";
  std::cout << "speedup at " << jobs << " workers: "
            << Table::num(speedup, 2) << "x ("
            << Table::num(seq.wall_ms, 1) << " ms -> "
            << Table::num(par.wall_ms, 1) << " ms; advisory here, CI requires "
            << ">= 1.3x on >= 4 cores)\n";

  exp::BenchRecord record;
  record.total_wall_ms = seq.wall_ms + par.wall_ms;
  exp::MicroSample micro;
  micro.name = "fleet_tick_pipeline";
  micro.ops = static_cast<std::uint64_t>(n);
  micro.wall_ms = par.wall_ms;
  micro.ops_per_sec = par.wall_ms > 0.0 ? n / (par.wall_ms / 1e3) : 0.0;
  micro.baseline_ops_per_sec = seq.wall_ms > 0.0 ? n / (seq.wall_ms / 1e3) : 0.0;
  micro.speedup = speedup;
  record.micro.push_back(std::move(micro));

  exp::ServiceScenarioRecord sr;
  sr.name = "fleet";
  sr.submitted = par.report.submitted;
  sr.accepted = par.report.accepted;
  sr.rejected = par.report.rejected;
  sr.completed = par.report.completed;
  sr.failed = par.report.failed;
  sr.preemptions = par.report.preemptions;
  sr.deferrals = par.report.deferrals;
  sr.max_concurrent = par.report.max_concurrent_observed;
  sr.power_cap_violations = par.report.power_cap_violations;
  sr.sla_interactive_met = par.report.interactive.sla_met;
  sr.sla_interactive_completed = par.report.interactive.completed;
  sr.makespan_s = par.report.makespan;
  sr.bytes = par.report.total_bytes;
  sr.energy_j = par.report.total_energy;
  sr.cost_usd = par.report.total_cost_usd;
  sr.peak_power_w = par.report.peak_power;
  sr.peak_power_bound_w = par.report.peak_power_bound;
  sr.wall_ms = par.wall_ms;
  record.service.push_back(std::move(sr));

  // The parallel run's series is the record's telemetry section: it is the
  // byte-compared copy, and the one a scrape observed live.
  record.telemetry = &par.telemetry;
  record.flightrec = &par.flightrec;
  if (collector) {
    bench::write_obs_outputs(opt, *collector);
    record.metrics = collector->metrics().snapshot();
  }
  bench::write_bench_record(opt, std::move(record));

  std::cout << "The race reruns one schedule at --jobs 1 and --jobs " << jobs
            << "; the payload compare above is the determinism contract the "
               "parallel\ntick pipeline ships under — speedup only counts "
               "after byte equality.\n";
  return ok ? 0 : 1;
}
