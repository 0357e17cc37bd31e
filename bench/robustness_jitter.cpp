// Monte-Carlo robustness: do the paper's headline orderings survive link
// noise? Each seed adds 10 % multiplicative per-tick rate jitter (bursty
// cross-traffic, storage hiccups) and reruns the XSEDE comparison; the table
// reports means, spreads, and how often each ordering held.
#include <map>
#include <chrono>
#include <iostream>

#include "bench_common.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace eadt;
  const auto opt = bench::parse_options(argc, argv);

  const auto base = testbeds::scaled(testbeds::xsede(), opt.scale * 4);  // keep runs brisk

  std::cout << "Monte-Carlo robustness under 10% link jitter (XSEDE, cc=12)\n\n";

  constexpr int kSeeds = 10;
  const exp::Algorithm algorithms[] = {exp::Algorithm::kSc, exp::Algorithm::kMinE,
                                       exp::Algorithm::kProMc, exp::Algorithm::kHtee};
  std::map<exp::Algorithm, RunningStats> thr, energy;
  int mine_cheapest = 0, promc_fastest = 0;

  // The (seed x algorithm) Monte-Carlo grid as one parallel sweep. Each task
  // carries its own jittered testbed, so accumulation below walks results in
  // submission order — identical to the old sequential loop.
  std::vector<exp::SweepTask> tasks;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    auto t = base;
    t.env.rate_jitter_sd = 0.10;
    t.env.jitter_seed = static_cast<std::uint64_t>(seed);
    const auto ds = t.make_dataset();
    for (const auto a : algorithms) {
      exp::SweepTask task;
      task.testbed = t;
      task.dataset = ds;
      task.algorithm = a;
      task.concurrency = 12;
      tasks.push_back(std::move(task));
    }
  }
  const auto sweep_start = std::chrono::steady_clock::now();
  const auto results = exp::SweepRunner(opt.jobs).run(tasks);
  const double sweep_ms = std::chrono::duration<double, std::milli>(
      std::chrono::steady_clock::now() - sweep_start).count();

  for (int seed = 1; seed <= kSeeds; ++seed) {
    std::map<exp::Algorithm, exp::RunOutcome> outs;
    for (std::size_t i = 0; i < std::size(algorithms); ++i) {
      const auto& r = results[static_cast<std::size_t>(seed - 1) * std::size(algorithms) + i];
      outs.emplace(algorithms[i], r.run);
      thr[algorithms[i]].add(r.run.throughput_mbps());
      energy[algorithms[i]].add(r.run.energy());
    }
    const bool cheapest =
        outs.at(exp::Algorithm::kMinE).energy() < outs.at(exp::Algorithm::kSc).energy() &&
        outs.at(exp::Algorithm::kMinE).energy() <
            outs.at(exp::Algorithm::kProMc).energy();
    const bool fastest =
        outs.at(exp::Algorithm::kProMc).throughput_mbps() >=
            outs.at(exp::Algorithm::kSc).throughput_mbps() &&
        outs.at(exp::Algorithm::kProMc).throughput_mbps() >=
            outs.at(exp::Algorithm::kMinE).throughput_mbps();
    mine_cheapest += cheapest ? 1 : 0;
    promc_fastest += fastest ? 1 : 0;
  }

  Table table({"algorithm", "Mbps mean", "Mbps sd", "Joule mean", "Joule sd"});
  for (const auto a : algorithms) {
    table.add_row({exp::to_string(a), Table::num(thr[a].mean(), 0),
                   Table::num(thr[a].stddev(), 0), Table::num(energy[a].mean(), 0),
                   Table::num(energy[a].stddev(), 0)});
  }
  bench::emit(table, opt);

  std::cout << "ordering stability over " << kSeeds << " seeds:\n"
            << "  MinE cheapest (vs SC & ProMC): " << mine_cheapest << "/" << kSeeds
            << "\n  ProMC fastest (vs SC & MinE): " << promc_fastest << "/" << kSeeds
            << "\n";

  exp::BenchRecord record;
  record.total_wall_ms = sweep_ms;
  record.tasks = results;
  bench::write_bench_record(opt, std::move(record));
  return 0;
}
