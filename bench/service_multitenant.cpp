// Multi-tenant scheduler scenarios: many TransferSessions sharing one
// simulation and one path, arbitrated by a joint fair-share round per tick.
// Three deterministic scenarios exercise the overload-resilience layer:
//
//   overload_ramp   48 tenants arrive at ~2x the drain rate while a brownout
//                   storm cuts the shared link; the bounded queue sheds the
//                   overflow, interactive arrivals preempt running scavengers
//                   (which later *resume* from their checkpoints), and the
//                   scheduler must still reach >= 32 concurrent sessions.
//   power_capped    a site-wide watt cap gates dispatch against each
//                   session's provable peak draw; the measured per-tick sum
//                   must never cross the cap.
//   tariff_deferral scavengers submitted in the expensive band are shifted
//                   into the tariff's cheapest hours.
//
// Cells fan out with SweepRunner::parallel_indexed and are collected by
// index, so the record is bit-identical at any --jobs N.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exp/scheduler.hpp"
#include "exp/service.hpp"
#include "obs/obs.hpp"
#include "obs/openmetrics.hpp"
#include "obs/telemetry.hpp"
#include "power/tariff.hpp"
#include "proto/faults.hpp"

namespace {

using namespace eadt;

struct Scenario {
  std::string name;
  std::vector<exp::SchedulerJob> jobs;
  exp::SchedulerPolicy policy;
  proto::FaultPlan faults;
  bool tariffed = false;
  Seconds tariff_start = 0.0;
  exp::SchedulerReport report;
  double wall_ms = 0.0;
  /// Owned by the scenario so the parallel fan-out keeps each hub
  /// single-writer; null for scenarios that do not sample.
  std::unique_ptr<obs::TelemetryHub> telemetry;
  std::unique_ptr<obs::TickFlightRecorder> flightrec;
};

int resumes(const exp::SchedulerReport& report) {
  int n = 0;
  for (const auto& out : report.jobs) {
    n += out.recovery.count(exp::RecoveryAction::kResume);
  }
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);

  const auto base = testbeds::scaled(testbeds::xsede(), opt.scale * 4);
  bench::print_header(base, opt);

  // Per-tenant dataset: full-size file bands (so transfers stay
  // bandwidth-dominated and contention actually stretches them — shrinking
  // the files would leave per-file overheads in charge and no overload to
  // schedule around), with only the byte total scaled down. Distinct seeds
  // give every tenant its own file mix.
  auto tenant_tb = testbeds::xsede();
  tenant_tb.recipe.total_bytes /= std::max(1u, opt.scale);
  const auto tenant_dataset = [&](std::uint64_t seed) {
    auto tb = tenant_tb;
    tb.dataset_seed = 42 + seed;
    return tb.make_dataset();
  };

  // One clean probe calibrates the timeline (T = one uncontended tenant job)
  // and the reference rate every cell shares.
  exp::TransferService probe(base, 0.0, {});
  const BitsPerSecond reference_rate = probe.reference_rate();
  Seconds T = 0.0;
  {
    std::vector<exp::TransferJob> jobs;
    jobs.push_back({"probe", tenant_dataset(0), exp::JobPolicy::kBalanced, 0, 0, 4});
    T = probe.run_queue(jobs).jobs[0].result.duration;
  }
  const Watts session_peak = exp::session_peak_power_bound(base.env);

  std::vector<Scenario> scenarios;

  {  // --- overload ramp + brownout storm --------------------------------
    Scenario s;
    s.name = "overload_ramp";
    s.policy.max_concurrent = 32;
    s.policy.max_queue_depth = 8;
    s.policy.supervision.attempt_deadline = 120.0 * T;
    s.policy.supervision.max_attempts = 6;
    s.policy.supervision.degrade_after = 1;
    s.policy.horizon = 400.0 * T;
    // The storm: two site-level brownouts while every slot is occupied.
    s.policy.link_brownouts.push_back({3.0 * T, 2.0 * T, 0.35});
    s.policy.link_brownouts.push_back({6.0 * T, 1.5 * T, 0.5});
    // Background faults on every session, as in the robustness benches.
    s.faults.stochastic.channel_drop_rate = 0.002;
    s.faults.seed = 17;
    // 32 background tenants (scavenger-heavy) arrive almost at once and fill
    // every slot — under 32-way sharing each needs ~32 T, so the interactive
    // burst at 2 T lands mid-flight and must preempt its way in.
    for (int i = 0; i < 32; ++i) {
      const auto policy =
          i % 4 == 3 ? exp::JobPolicy::kBalanced : exp::JobPolicy::kGreen;
      s.jobs.push_back({{"bg" + std::to_string(i), tenant_dataset(i), policy,
                         0, 0, 4},
                        0.02 * T * i});
    }
    for (int i = 0; i < 16; ++i) {
      const auto policy = i % 4 == 0 ? exp::JobPolicy::kSla : exp::JobPolicy::kDeadline;
      s.jobs.push_back({{"fg" + std::to_string(i), tenant_dataset(32 + i), policy,
                         /*sla_percent=*/2.0, 0, 6},
                        2.0 * T + 0.125 * T * i});
    }
    // The ramp is the scenario whose shed/preempt/burn trajectory the record's
    // telemetry section narrates: ~8 samples per T across the whole horizon.
    s.telemetry = std::make_unique<obs::TelemetryHub>(
        /*stride_s=*/T / 8.0, /*capacity=*/8192, /*site_count=*/1);
    s.flightrec = std::make_unique<obs::TickFlightRecorder>();
    scenarios.push_back(std::move(s));
  }

  {  // --- site power cap --------------------------------------------------
    Scenario s;
    s.name = "power_capped";
    s.policy.max_concurrent = 8;
    s.policy.max_queue_depth = 16;
    s.policy.power_cap = session_peak * 5.0;  // room for 5 of 8 slots
    s.policy.horizon = 400.0 * T;
    for (int i = 0; i < 12; ++i) {
      s.jobs.push_back({{"cap" + std::to_string(i), tenant_dataset(60 + i),
                         exp::JobPolicy::kBalanced, 0, 0, 4},
                        0.1 * T * i});
    }
    scenarios.push_back(std::move(s));
  }

  {  // --- tariff-aware deferral ------------------------------------------
    Scenario s;
    s.name = "tariff_deferral";
    s.policy.max_concurrent = 4;
    s.policy.max_queue_depth = 16;
    s.policy.max_defer = 24.0 * 3600;
    s.policy.horizon = 48.0 * 3600 + 400.0 * T;
    s.tariffed = true;
    s.tariff_start = 10.0 * 3600;  // scheduler time 0 = 10:00, peak band
    for (int i = 0; i < 6; ++i) {
      s.jobs.push_back({{"night" + std::to_string(i), tenant_dataset(80 + i),
                         exp::JobPolicy::kGreen, 0, 0, 4},
                        60.0 * i});
    }
    scenarios.push_back(std::move(s));
  }

  // --jobs / EADT_JOBS drives both layers of parallelism: the scenario
  // fan-out below and each scheduler's own tick pipeline. The reports are
  // byte-identical at any value of either.
  const int jobs = exp::resolve_jobs(opt.jobs);
  for (auto& s : scenarios) s.policy.jobs = jobs;

  const auto collector = bench::make_collector(opt);
  const power::Tariff tariff = power::Tariff::time_of_use(
      0.05, {{8.0, 20.0, 0.30}});

  // The scrape listener spans the whole sweep: the registry is shared across
  // cells (snapshot() is what makes a mid-run scrape coherent).
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

  const auto sweep_start = std::chrono::steady_clock::now();
  exp::SweepRunner::parallel_indexed(
      jobs, scenarios.size(), [&](std::size_t i) {
        auto& s = scenarios[i];
        const auto cell_start = std::chrono::steady_clock::now();
        exp::Scheduler scheduler(base, reference_rate, s.policy);
        scheduler.set_fault_plan(s.faults);
        if (s.tariffed) scheduler.set_tariff(tariff, s.tariff_start);
        // Slots are single-writer: give each cell its own slot range (the
        // range also covers the scheduler's own summary slot at base + n).
        scheduler.set_collector(collector.get(), i * 64);
        scheduler.set_telemetry(s.telemetry.get());
        scheduler.set_flight_recorder(s.flightrec.get());
        s.report = scheduler.run(s.jobs);
        s.wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - cell_start)
                        .count();
      });
  if (server) server->stop();
  const double sweep_ms = std::chrono::duration<double, std::milli>(
      std::chrono::steady_clock::now() - sweep_start).count();

  Table table({"scenario", "sub", "acc", "rej", "done", "fail", "preempt",
               "defer", "resume", "max cc", "peak W", "cap W", "cap viol",
               "makespan s"});
  for (const auto& s : scenarios) {
    const auto& r = s.report;
    table.add_row({s.name, Table::num(r.submitted, 0), Table::num(r.accepted, 0),
                   Table::num(r.rejected, 0), Table::num(r.completed, 0),
                   Table::num(r.failed, 0), Table::num(r.preemptions, 0),
                   Table::num(r.deferrals, 0), Table::num(resumes(r), 0),
                   Table::num(r.max_concurrent_observed, 0),
                   Table::num(r.peak_power, 0),
                   Table::num(s.policy.power_cap, 0),
                   Table::num(r.power_cap_violations, 0),
                   Table::num(r.makespan, 0)});
  }
  bench::emit(table, opt);

  std::cout << "Per-class accounting (overload_ramp)\n";
  Table classes({"class", "submitted", "rejected", "completed", "failed",
                 "sla met"});
  const auto& ramp = scenarios[0].report;
  const auto class_row = [&](const char* name, const exp::SlaClassStats& c) {
    classes.add_row({name, Table::num(c.submitted, 0), Table::num(c.rejected, 0),
                     Table::num(c.completed, 0), Table::num(c.failed, 0),
                     Table::num(c.sla_met, 0)});
  };
  class_row("interactive", ramp.interactive);
  class_row("standard", ramp.standard);
  class_row("scavenger", ramp.scavenger);
  bench::emit(classes, opt);

  const auto& capped = scenarios[1].report;
  const auto& night = scenarios[2].report;
  bool ok = true;
  const auto check = [&](const char* what, bool pass) {
    std::cout << "  " << what << ": " << (pass ? "yes" : "NO") << "\n";
    ok = ok && pass;
  };
  std::cout << "checks:\n";
  check("overload ramp reached >= 32 concurrent sessions",
        ramp.max_concurrent_observed >= 32);
  check("bounded queue shed part of the overload", ramp.rejected > 0);
  check("interactive burst preempted running scavengers", ramp.preemptions > 0);
  check("preempted jobs resumed from their checkpoints", resumes(ramp) > 0);
  check("every scenario's accounting is conservative",
        ramp.accounting_consistent() && capped.accounting_consistent() &&
            night.accounting_consistent());
  check("power cap was never exceeded between ticks",
        capped.power_cap_violations == 0 &&
            capped.peak_power <= scenarios[1].policy.power_cap);
  check("cap held concurrency to the provable-bound budget",
        capped.max_concurrent_observed <= 5);
  check("scavengers deferred into the cheap tariff band",
        night.deferrals == static_cast<int>(night.jobs.size()));
  std::cout << "\n";

  exp::BenchRecord record;
  record.total_wall_ms = sweep_ms;
  for (const auto& s : scenarios) {
    exp::ServiceScenarioRecord sr;
    sr.name = s.name;
    sr.submitted = s.report.submitted;
    sr.accepted = s.report.accepted;
    sr.rejected = s.report.rejected;
    sr.completed = s.report.completed;
    sr.failed = s.report.failed;
    sr.preemptions = s.report.preemptions;
    sr.deferrals = s.report.deferrals;
    sr.max_concurrent = s.report.max_concurrent_observed;
    sr.power_cap_violations = s.report.power_cap_violations;
    sr.sla_interactive_met = s.report.interactive.sla_met;
    sr.sla_interactive_completed = s.report.interactive.completed;
    sr.makespan_s = s.report.makespan;
    sr.bytes = s.report.total_bytes;
    sr.energy_j = s.report.total_energy;
    sr.cost_usd = s.report.total_cost_usd;
    sr.peak_power_w = s.report.peak_power;
    sr.peak_power_bound_w = s.report.peak_power_bound;
    sr.power_cap_w = s.policy.power_cap;
    sr.wall_ms = s.wall_ms;
    record.service.push_back(std::move(sr));
  }
  record.telemetry = scenarios[0].telemetry.get();
  record.flightrec = scenarios[0].flightrec.get();
  if (collector) {
    bench::write_obs_outputs(opt, *collector);
    record.metrics = collector->metrics().snapshot();
  }
  bench::write_bench_record(opt, std::move(record));

  std::cout << "Scenario times are multiples of T = " << Table::num(T, 1)
            << " s (one uncontended tenant job). The ramp offers ~2x what the "
               "slice drains,\nso the bounded queue sheds the tail instead of "
               "letting latency grow without bound;\npreempted scavengers "
               "carry their byte journal across the preemption.\n";
  return ok ? 0 : 1;
}
