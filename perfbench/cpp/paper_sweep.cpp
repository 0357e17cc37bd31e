// paper_sweep: the paper's Figures 2-4 concurrency grids and Figures 5-7
// SLAEE grids at paper scale, one single-session task at a time through
// exp::SweepRunner at one job. Stresses the session tick, the per-session
// event queue and the HTEE/SLAEE controllers; never touches the scheduler,
// the LinkArbiter or the tick pool. Which tasks form the slow tail depends on
// the drawn datasets, so a timed cycle runs the grid for kVariants dataset
// draws derived from the workload seed (variant 0 is the figure benches' own
// input).
#include <algorithm>
#include <cctype>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "exp/sweep.hpp"
#include "testbeds/testbeds.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace eadt;

constexpr int kVariants = 4;

/// One sweep task, wrapped as the one-task grid the runner executes.
struct Item {
  std::vector<exp::SweepTask> grid;
  std::string span;      ///< "exp.runner/<algorithm>"
  int calibrated_by = -1;  ///< SLA tasks: index of the ProMC task setting their max
};

std::string runner_span(std::string_view algorithm) {
  std::string s = "exp.runner/";
  for (const char c : algorithm) {
    s.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return s;
}

/// The six figure benches' grids, in bench order. Variant 0 keeps each
/// testbed's own dataset seed, so the tasks are exactly the benches' tasks.
std::vector<Item> build_grid(std::uint64_t variant, Tracer* tracer) {
  std::vector<testbeds::Testbed> beds;
  {
    Span span(tracer, "setup/testbeds");
    beds = {testbeds::xsede(), testbeds::futuregrid(), testbeds::didclab()};
  }
  std::vector<proto::Dataset> datasets;
  {
    Span span(tracer, "setup/datasets");
    for (auto& t : beds) {
      t.dataset_seed += seed_offset(variant, 1);
      datasets.push_back(t.make_dataset());
    }
  }
  Span span(tracer, "setup/tasks");
  std::vector<Item> items;
  const auto add = [&](std::size_t bed, exp::SweepTask task, std::string name) {
    task.testbed = beds[bed];
    task.dataset = datasets[bed];
    Item item;
    item.grid.push_back(std::move(task));
    item.span = runner_span(name);
    items.push_back(std::move(item));
  };
  const auto levels = exp::figure_concurrency_levels();
  for (std::size_t bed = 0; bed < beds.size(); ++bed) {
    for (const auto a : exp::figure_algorithms()) {
      for (const int level : levels) {
        if ((a == exp::Algorithm::kGuc || a == exp::Algorithm::kGo) &&
            level != levels.front()) {
          continue;
        }
        exp::SweepTask task;
        task.algorithm = a;
        task.concurrency = level;
        add(bed, std::move(task), exp::to_string(a));
      }
    }
    for (const int level : exp::bf_concurrency_levels()) {
      exp::SweepTask task;
      task.algorithm = exp::Algorithm::kBf;
      task.concurrency = level;
      add(bed, std::move(task), exp::to_string(exp::Algorithm::kBf));
    }
  }
  const int promc_levels[] = {12, 12, 1};  // Figures 5, 6, 7
  for (std::size_t bed = 0; bed < beds.size(); ++bed) {
    exp::SweepTask promc;
    promc.algorithm = exp::Algorithm::kProMc;
    promc.concurrency = promc_levels[bed];
    add(bed, std::move(promc), exp::to_string(exp::Algorithm::kProMc));
    const int calibration = static_cast<int>(items.size()) - 1;
    for (const double target : exp::sla_target_percents()) {
      exp::SweepTask task;
      task.kind = exp::SweepTask::Kind::kSla;
      task.concurrency = 12;
      task.target_percent = target;
      add(bed, std::move(task), "slaee");
      items.back().calibrated_by = calibration;
    }
  }
  return items;
}

/// What the per-layer metrics read from the last traced pass.
struct Last {
  sim::SimCounters sim;
  std::uint64_t tasks = 0;
};

Pass run_pass(std::vector<Item>& items, Tracer* tracer, Last& last) {
  const exp::SweepRunner runner(1);
  std::vector<exp::SweepTaskResult> results(items.size());
  Pass p;
  p.task_ms.reserve(items.size());
  const auto start = Clock::now();
  for (std::size_t i = 0; i < items.size(); ++i) {
    Item& item = items[i];
    if (item.calibrated_by >= 0) {
      item.grid[0].max_throughput =
          results[static_cast<std::size_t>(item.calibrated_by)].result().avg_throughput();
    }
    const auto t0 = Clock::now();
    {
      Span span(tracer, item.span);
      results[i] = std::move(runner.run(item.grid).front());
    }
    p.task_ms.push_back(seconds_since(t0) * 1e3);
    results[i].index = i;
  }
  p.wall_s = seconds_since(start);
  sim::SimCounters sim;
  for (const auto& r : results) {
    const auto& res = r.result();
    if (!res.completed || !res.error.empty()) ++p.failed;
    sim.fired += res.sim_counters.fired;
    sim.ticks += res.sim_counters.ticks;
    sim.cancelled += res.sim_counters.cancelled;
    sim.peak_queue = std::max(sim.peak_queue, res.sim_counters.peak_queue);
  }
  p.attempted = items.size();
  p.ok = p.failed == 0;
  p.ticks = sim.ticks;
  p.payload = exp::sweep_payload(results);
  if (tracer != nullptr) last = {sim, p.attempted};
  return p;
}

}  // namespace

Outcome run_paper_sweep(const RunOptions& opt) {
  Last last;
  Workload w;
  w.variants = kVariants;
  w.prepare = [&last](std::uint64_t variant, Tracer* tracer) -> Runner {
    auto items = std::make_shared<std::vector<Item>>(build_grid(variant, tracer));
    return [items, &last](Tracer* tr) { return run_pass(*items, tr, last); };
  };
  if (!opt.trace) return measure(opt, w);

  Outcome out;
  const double per = 1.0 / trace_passes(opt, w, out);
  const Tracer& tr = *opt.tracer;
  auto& m = out.metrics;
  m["sim.events_fired"] = static_cast<double>(last.sim.fired);
  m["sim.ticks"] = static_cast<double>(last.sim.ticks);
  m["sim.cancelled"] = static_cast<double>(last.sim.cancelled);
  m["sim.peak_queue"] = static_cast<double>(last.sim.peak_queue);
  m["runner.tasks"] = static_cast<double>(last.tasks);
  for (const char* alg : {"guc", "go", "sc", "mine", "promc", "htee", "bf", "slaee"}) {
    m[std::string("runner.") + alg + "_ms"] =
        tr.total_s(std::string("exp.runner/") + alg) * 1e3 * per;
  }
  return out;
}

}  // namespace perfbench
