// Robustness under injected failures: sweep a fault-severity ladder (clean,
// light, moderate, heavy) across the XSEDE comparison and report what each
// algorithm pays in goodput, retries and wasted energy. The "energy overhead"
// column is the extra end-system joules relative to the same algorithm's
// fault-free run — the cost of retransmission and idle backoff the paper's
// clean-room figures never show.
#include <chrono>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "proto/faults.hpp"

int main(int argc, char** argv) {
  using namespace eadt;
  const auto opt = bench::parse_options(argc, argv);

  const auto base = testbeds::scaled(testbeds::xsede(), opt.scale * 4);  // keep runs brisk
  const auto ds = base.make_dataset();

  struct Severity {
    const char* name;
    proto::FaultPlan plan;
  };
  std::vector<Severity> ladder;
  ladder.push_back({"clean", {}});
  {
    proto::FaultPlan light;
    light.stochastic.channel_drop_rate = 0.01;
    light.seed = 11;
    ladder.push_back({"light", light});
  }
  {
    proto::FaultPlan moderate;
    moderate.stochastic.channel_drop_rate = 0.03;
    moderate.stochastic.checksum_failure_prob = 0.002;
    moderate.seed = 11;
    ladder.push_back({"moderate", moderate});
  }
  {
    proto::FaultPlan heavy;
    heavy.stochastic.channel_drop_rate = 0.08;
    heavy.stochastic.checksum_failure_prob = 0.005;
    heavy.outages.push_back({/*source_side=*/true, /*server=*/0,
                             /*start=*/20.0, /*duration=*/30.0});
    heavy.retry.restart_markers = false;  // legacy stacks pay full retransmits
    heavy.seed = 11;
    ladder.push_back({"heavy", heavy});
  }

  std::cout << "Fault-severity ladder (XSEDE, cc=12): goodput and the energy "
               "price of recovery\n\n";

  const exp::Algorithm algorithms[] = {exp::Algorithm::kSc, exp::Algorithm::kMinE,
                                       exp::Algorithm::kProMc, exp::Algorithm::kHtee};

  // The full (severity x algorithm) grid as one parallel sweep; the clean
  // rows come back first (index order), giving every algorithm its energy
  // baseline before the faulted rows are rendered.
  std::vector<exp::SweepTask> tasks;
  std::vector<const char*> severity_of;
  for (const auto& sev : ladder) {
    for (const auto a : algorithms) {
      exp::SweepTask task;
      task.testbed = base;
      task.dataset = ds;
      task.algorithm = a;
      task.concurrency = 12;
      task.faults = sev.plan;
      tasks.push_back(std::move(task));
      severity_of.push_back(sev.name);
    }
  }
  const auto sweep_start = std::chrono::steady_clock::now();
  const auto results = exp::SweepRunner(opt.jobs).run(tasks);
  const double sweep_ms = std::chrono::duration<double, std::milli>(
      std::chrono::steady_clock::now() - sweep_start).count();

  std::map<exp::Algorithm, Joules> clean_energy;
  Table table({"severity", "algorithm", "goodput Mbps", "Joules", "retries",
               "wasted MB", "wasted J", "energy overhead %"});
  for (const auto& r : results) {
    const auto& out = r.run;
    const auto a = out.algorithm;
    const auto& f = out.result.faults;
    if (!tasks[r.index].faults.active()) clean_energy[a] = out.energy();
    const double base_j = clean_energy.count(a) ? clean_energy[a] : 0.0;
    const double overhead =
        base_j > 0.0 ? (out.energy() - base_j) / base_j * 100.0 : 0.0;
    table.add_row({severity_of[r.index], exp::to_string(a),
                   Table::num(to_mbps(out.result.avg_goodput()), 0),
                   Table::num(out.energy(), 0), Table::num(double(f.retries), 0),
                   Table::num(double(f.wasted_bytes) / double(kMB), 1),
                   Table::num(f.wasted_joules, 0), Table::num(overhead, 1)});
  }
  bench::emit(table, opt);

  exp::BenchRecord record;
  record.total_wall_ms = sweep_ms;
  record.tasks = results;
  bench::write_bench_record(opt, std::move(record));

  std::cout << "Severities: light = 0.01 drops/s; moderate = 0.03 drops/s + "
               "0.2% checksum failures;\nheavy = 0.08 drops/s + 0.5% checksum "
               "failures + a 30 s source-server outage,\nwithout restart "
               "markers (full-file retransmission).\n";
  return 0;
}
