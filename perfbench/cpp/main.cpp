// perfbench: the repository benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <file>]
//
// Runs one workload through the public API of the libraries under src/,
// times it from outside, checks its outputs, and prints human-readable lines
// followed by one JSON object as the last line of stdout:
//
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate traced
// run that reports the per-layer metrics and writes its spans (Chrome trace
// JSON) to --spans-out once, at exit. Layers a workload never exercises
// report 0. perfbench/README.md maps each per-layer metric to the
// end-to-end metric and workload it should move.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "trace.hpp"

namespace {

using perfbench::Outcome;
using perfbench::RunOptions;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"},         {"ticks_per_s", "1/s"},  {"serial_wall_s", "s"},
    {"task_p50_ms", "ms"},   {"task_p90_ms", "ms"},   {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"sim.events_fired", "count"},
    {"sim.ticks", "count"},
    {"sim.cancelled", "count"},
    {"sim.peak_queue", "count"},
    {"net.rounds", "count"},
    {"net.flows_per_round", "count"},
    {"net.groups_per_round", "count"},
    {"net.collapse_ratio", "ratio"},
    {"net.waterfill_round_share", "ratio"},
    {"net.allocate_us", "us"},
    {"net.reference_us", "us"},
    {"net.solve_dist_us", "us"},
    {"net.exact_round_share", "ratio"},
    {"proto.session_ticks", "count"},
    {"proto.prepare_ns", "ns"},
    {"proto.collect_ns", "ns"},
    {"proto.apply_ns", "ns"},
    {"proto.compute_ns", "ns"},
    {"proto.commit_ns", "ns"},
    {"proto.checkpoints", "count"},
    {"proto.resumes", "count"},
    {"scheduler.master_ticks", "count"},
    {"scheduler.prepare_ms", "ms"},
    {"scheduler.arbiter_ms", "ms"},
    {"scheduler.apply_ms", "ms"},
    {"scheduler.commit_ms", "ms"},
    {"scheduler.outside_ms", "ms"},
    {"scheduler.serial_share", "ratio"},
    {"scheduler.dispatches", "count"},
    {"scheduler.preemptions", "count"},
    {"scheduler.shed", "count"},
    {"scheduler.migrations", "count"},
    {"tick_pool.workers", "count"},
    {"tick_pool.phase_speedup", "ratio"},
    {"tick_pool.imbalance", "ratio"},
    {"runner.tasks", "count"},
    {"runner.guc_ms", "ms"},
    {"runner.go_ms", "ms"},
    {"runner.sc_ms", "ms"},
    {"runner.mine_ms", "ms"},
    {"runner.promc_ms", "ms"},
    {"runner.htee_ms", "ms"},
    {"runner.bf_ms", "ms"},
    {"runner.slaee_ms", "ms"},
    {"supervisor.run_queue_ms", "ms"},
    {"supervisor.attempts", "count"},
    {"supervisor.migrations", "count"},
    {"supervisor.hedge_legs", "count"},
    {"obs.trace_overhead", "ratio"},
    {"obs.unattributed_share", "ratio"},
    {"obs.telemetry_samples", "count"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload paper_sweep|fleet_1k|service_mix|failover_paths\n"
            << "                 --seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]\n";
  std::exit(2);
}

rusage self_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  std::string spans_out;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opt.trace = std::stoi(value) != 0;
      } else if (flag == "--spans-out") {
        spans_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");

#ifndef __OPTIMIZE__
  std::cerr << "perfbench: refusing to measure an unoptimised build "
               "(configure with -DCMAKE_BUILD_TYPE=Release)\n";
  return 3;
#endif

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  opt.workers = static_cast<int>(std::min(4u, nproc));
  const int tick_workers = opt.workload == "fleet_1k" ? opt.workers : 1;
  std::map<std::string, std::string> fingerprint{
      {"nproc", std::to_string(nproc)},
#ifdef __clang__
      {"compiler", "clang++ " __clang_version__},
#else
      {"compiler", "g++ " __VERSION__},
#endif
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"tick_workers", std::to_string(tick_workers)},
      {"workload", opt.workload},
      {"seed", std::to_string(opt.seed)},
      {"seconds", json_number(opt.seconds)},
      {"trace", opt.trace ? "1" : "0"},
  };
  std::cout << "fingerprint:";
  for (const auto& [k, v] : fingerprint) std::cout << ' ' << k << '=' << v;
  std::cout << '\n';

  // The probe runs only in the untraced runs, the ones whose times it scales.
  std::unique_ptr<perfbench::SpeedProbe> probe;
  if (!opt.trace) {
    probe = std::make_unique<perfbench::SpeedProbe>();
    opt.probe = probe.get();
  }
  perfbench::Tracer tracer(opt.workload + "-" + std::to_string(opt.seed) + "-" +
                           std::to_string(getpid()));
  if (opt.trace) opt.tracer = &tracer;

  Outcome out;
  try {
    if (opt.workload == "paper_sweep") {
      out = perfbench::run_paper_sweep(opt);
    } else if (opt.workload == "fleet_1k") {
      out = perfbench::run_fleet(opt);
    } else if (opt.workload == "service_mix") {
      out = perfbench::run_service_mix(opt);
    } else if (opt.workload == "failover_paths") {
      out = perfbench::run_failover(opt);
    } else {
      usage("unknown workload " + opt.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " aborted: " << e.what() << '\n';
    return 1;
  }

  if (opt.trace) {
    const double roots = tracer.roots_s();
    const auto self = tracer.layer_self_s();
    const auto bench = self.find("bench");
    if (roots > 0.0) {
      out.metrics["obs.unattributed_share"] = (bench != self.end() ? bench->second : 0.0) / roots;
    }
    for (const auto& [layer, s] : self) {
      out.notes.push_back("self time " + layer + " = " + json_number(s) + " s");
    }
    if (!spans_out.empty()) {
      std::ofstream f(spans_out);
      tracer.write_json(f, fingerprint);
      if (!f) {
        std::cerr << "perfbench: could not write spans to " << spans_out << '\n';
        return 1;
      }
    }
  }

  // Every reported name must come from the catalogue; a layer the workload
  // never exercised reports 0, an end-to-end metric must be measured.
  std::vector<MetricDef> defs;
  if (opt.trace) {
    defs.assign(std::begin(kPerLayer), std::end(kPerLayer));
  } else {
    defs.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
  }
  for (const auto& [name, value] : out.metrics) {
    const bool known = std::any_of(defs.begin(), defs.end(),
                                   [&](const MetricDef& d) { return name == d.name; });
    if (!known) {
      std::cerr << "perfbench: metric " << name << " is not in the catalogue\n";
      return 1;
    }
  }
  if (!opt.trace) {
    for (const auto& d : defs) {
      if (out.metrics.count(d.name) == 0) {
        std::cerr << "perfbench: end-to-end metric " << d.name << " was not measured\n";
        return 1;
      }
    }
  }

  const rusage ru = self_usage();
  out.notes.push_back("process: " + std::to_string(ru.ru_minflt) + " minor page faults, " +
                      std::to_string(ru.ru_nivcsw) + " involuntary context switches");
  for (const auto& note : out.notes) std::cout << opt.workload << ": " << note << '\n';
  for (const auto& d : defs) {
    std::cout << opt.workload << ": " << d.name << " = " << json_number(out.metrics[d.name])
              << ' ' << d.unit << '\n';
  }
  const double frac = out.attempted > 0 ? static_cast<double>(out.failed + out.shed) /
                                              static_cast<double>(out.attempted)
                                        : 0.0;
  std::cout << opt.workload << ": failed_frac = " << json_number(frac) << " ("
            << out.failed << " failed, " << out.shed << " shed, of " << out.attempted
            << " attempted)\n";
  std::cout << opt.workload << ": correct = " << (out.correct ? "yes" : "NO")
            << ", payload digest " << out.digest << '\n';

  std::ostringstream json;
  json << "{\"correct\": " << (out.correct ? "true" : "false")
       << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    if (i > 0) json << ", ";
    json << '"' << defs[i].name << "\": {\"value\": " << json_number(out.metrics[defs[i].name])
         << ", \"unit\": \"" << defs[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}
