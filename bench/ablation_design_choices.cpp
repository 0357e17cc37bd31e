// Ablations of the design choices DESIGN.md section 5 calls out. Each section
// switches exactly one decision off (or replaces it with the obvious
// alternative) and reruns the relevant experiment, so the contribution of
// every mechanism to the headline results is visible in isolation.
//
//   1. MinE's Large-chunk single-channel rule (where its energy edge lives)
//   2. HTEE/ProMC log weights vs bytes-proportional weights
//   3. HTEE's stride-2 search vs a full sweep
//   4. Packed vs spread channel placement (the Globus Online energy penalty)
//   5. Pipelining amortisation on/off (small-file collapse)
//   6. The congestion term (net::congestion_efficiency) as calibrated vs off,
//      on XSEDE and on FutureGrid's 1 Gbps path, where it engages
#include <iostream>
#include <tuple>

#include "bench_common.hpp"
#include "core/algorithms.hpp"
#include "baselines/baselines.hpp"
#include "obs/obs.hpp"

namespace {

using namespace eadt;

// --trace-out/--metrics-out/--decisions: every ablation run gets its own
// collector slot (trace track), labelled by its table row.
obs::ObsCollector* g_collector = nullptr;
std::size_t g_next_slot = 0;

proto::RunResult run_plan(const testbeds::Testbed& t, const proto::Dataset& ds,
                          proto::TransferPlan plan, proto::Controller* ctl = nullptr,
                          const std::string& label = {}) {
  proto::SessionConfig config;
  if (g_collector != nullptr) {
    config.obs = g_collector->slot(g_next_slot++, label.empty() ? "ablation" : label);
  }
  proto::TransferSession session(t.env, ds, std::move(plan), config);
  return session.run(ctl);
}

std::vector<std::string> row(const std::string& name, const proto::RunResult& r) {
  return {name, Table::num(to_mbps(r.avg_throughput()), 0),
          Table::num(r.end_system_energy, 0),
          Table::num(r.throughput_per_joule(), 0)};
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);
  const auto collector = bench::make_collector(opt);
  g_collector = collector.get();
  auto t = testbeds::xsede();
  t.recipe.total_bytes /= opt.scale;
  const auto ds = t.make_dataset();
  const int cc = 12;

  std::cout << "Ablations (XSEDE testbed, cc budget " << cc << ")\n\n";

  {
    std::cout << "1. MinE: Large chunk pinned to one channel vs unrestricted\n";
    Table tab({"variant", "Mbps", "Joule", "ratio"});
    tab.add_row(row("MinE (pinned, paper)", run_plan(t, ds, core::plan_min_energy(t.env, ds, cc), nullptr,
                             "mine-pinned")));
    auto unpinned = core::plan_min_energy(t.env, ds, cc);
    unpinned.steal = proto::StealPolicy::kAll;  // freed channels may join Large
    tab.add_row(row("MinE without the rule",
                    run_plan(t, ds, unpinned, nullptr, "mine-unpinned")));
    tab.add_row(row("ProMC (reference)",
                    run_plan(t, ds, baselines::plan_promc(t.env, ds, cc), nullptr,
                             "promc-reference")));
    bench::emit(tab, opt);
  }

  {
    std::cout << "2. Channel weights: log(size)*log(count) vs bytes-proportional\n";
    Table tab({"variant", "Mbps", "Joule", "ratio"});
    tab.add_row(row("log weights (paper)",
                    run_plan(t, ds, baselines::plan_promc(t.env, ds, cc), nullptr,
                             "weights-log")));
    auto bytes_plan = baselines::plan_promc(t.env, ds, cc);
    {
      // Re-allocate channels proportional to chunk bytes (floor + remainder).
      Bytes total = 0;
      for (const auto& c : bytes_plan.chunks) total += c.total;
      int used = 0;
      for (std::size_t i = 0; i < bytes_plan.chunks.size(); ++i) {
        const double share = static_cast<double>(bytes_plan.chunks[i].total) /
                             static_cast<double>(total) * cc;
        bytes_plan.params[i].channels = static_cast<int>(share);
        used += bytes_plan.params[i].channels;
      }
      for (std::size_t i = 0; used < cc; i = (i + 1) % bytes_plan.chunks.size()) {
        ++bytes_plan.params[i].channels;
        ++used;
      }
    }
    tab.add_row(row("bytes-proportional",
                    run_plan(t, ds, bytes_plan, nullptr, "weights-bytes")));
    bench::emit(tab, opt);
  }

  {
    std::cout << "3. HTEE search: stride 2 (paper) vs full sweep (stride 1)\n";
    Table tab({"variant", "probes", "chosen cc", "Mbps", "Joule", "ratio"});
    for (const int stride : {2, 1}) {
      core::HteeController ctl(cc, stride);
      const auto r = run_plan(t, ds, core::plan_htee(t.env, ds, cc), &ctl,
                              stride == 2 ? "htee-stride2" : "htee-full");
      tab.add_row({stride == 2 ? "stride 2 (paper)" : "full sweep",
                   std::to_string(ctl.probe_count()), std::to_string(ctl.chosen_level()),
                   Table::num(to_mbps(r.avg_throughput()), 0),
                   Table::num(r.end_system_energy, 0),
                   Table::num(r.throughput_per_joule(), 0)});
    }
    bench::emit(tab, opt);
  }

  {
    std::cout << "4. Placement: packed on one DTN vs spread across the pool\n";
    Table tab({"variant", "Mbps", "Joule", "active servers/site"});
    for (const auto placement : {proto::Placement::kPacked, proto::Placement::kRoundRobin}) {
      auto plan = baselines::plan_single_chunk(t.env, ds, 2);
      plan.placement = placement;
      const auto r = run_plan(t, ds, std::move(plan), nullptr,
                              placement == proto::Placement::kPacked
                                  ? "placement-packed" : "placement-spread");
      int active = 0;
      for (const auto& s : r.source_servers) active += s.active_time > 0.0 ? 1 : 0;
      tab.add_row({placement == proto::Placement::kPacked ? "packed (custom client)"
                                                          : "spread (GO/GUC style)",
                   Table::num(to_mbps(r.avg_throughput()), 0),
                   Table::num(r.end_system_energy, 0), std::to_string(active)});
    }
    bench::emit(tab, opt);
  }

  {
    std::cout << "5. Pipelining: tuned depth vs disabled (Small chunk only)\n";
    Table tab({"variant", "Mbps", "Joule", "ratio"});
    tab.add_row(row("tuned pipelining (paper)",
                    run_plan(t, ds, baselines::plan_promc(t.env, ds, cc), nullptr,
                             "pipelining-tuned")));
    auto no_pp = baselines::plan_promc(t.env, ds, cc);
    for (auto& p : no_pp.params) p.pipelining = 1;
    tab.add_row(row("pipelining disabled",
                    run_plan(t, ds, std::move(no_pp), nullptr, "pipelining-off")));
    bench::emit(tab, opt);
  }

  {
    // The term engages only once demand passes the link or streams pass the
    // knee; on XSEDE at this budget neither happens, so FutureGrid's 1 Gbps
    // path is run too.
    std::cout << "6. Congestion term: as calibrated vs off (loss_beta = stream_beta = 0),"
                 " XSEDE and FutureGrid\n";
    Table tab({"variant", "Mbps", "Joule", "ratio"});
    auto fg = testbeds::futuregrid();
    fg.recipe.total_bytes /= opt.scale;
    const auto fg_ds = fg.make_dataset();
    for (const auto& [site, bed, data] : {std::tuple{"XSEDE", &t, &ds},
                                          std::tuple{"FutureGrid", &fg, &fg_ds}}) {
      auto off = *bed;
      off.env.congestion.loss_beta = 0.0;
      off.env.congestion.stream_beta = 0.0;
      for (const auto* b : {bed, &off}) {
        const bool on = b == bed;
        const std::string variant = on ? " (as calibrated)" : " without the term";
        const std::string tag = std::string(site) + (on ? "-congestion-" : "-no-congestion-");
        const auto promc = baselines::plan_promc(b->env, *data, cc);
        tab.add_row(row(site + std::string(" ProMC") + variant,
                        run_plan(*b, *data, promc, nullptr, tag + "promc")));
        core::HteeController ctl(cc);
        tab.add_row(row(site + std::string(" HTEE") + variant,
                        run_plan(*b, *data, core::plan_htee(b->env, *data, cc), &ctl,
                                 tag + "htee")));
      }
    }
    bench::emit(tab, opt);
  }

  if (collector) bench::write_obs_outputs(opt, *collector);
  return 0;
}
