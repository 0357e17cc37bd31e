#include "bench_common.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "exp/report.hpp"
#include "obs/obs.hpp"

namespace eadt::bench {

namespace {

std::string basename_of(std::string_view path) {
  const auto slash = path.find_last_of('/');
  return std::string(slash == std::string_view::npos ? path : path.substr(slash + 1));
}

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   since)
      .count();
}

}  // namespace

void print_usage(std::ostream& os) {
  os << "usage: bench [--scale N] [--csv] [--plot STEM] [--jobs N] [--quick]\n"
        "             [--json PATH] [--no-json]\n"
        "  --scale N   divide the dataset size by N (default 1: paper scale)\n"
        "  --csv       emit CSV instead of aligned tables\n"
        "  --plot STEM write STEM.csv and a gnuplot script STEM.gp\n"
        "  --jobs N    sweep worker threads (default: EADT_JOBS, then all cores),\n"
        "              at most "
     << exp::kMaxJobs
     << "; results are bit-identical for every N\n"
        "  --quick     smoke preset: raises --scale to at least 32\n"
        "  --json PATH write the perf record there instead of BENCH_<name>.json\n"
        "  --no-json   skip the BENCH_<name>.json perf record\n"
        "  --trace-out PATH    write a Chrome trace-event JSON of the sweep\n"
        "                      (open in ui.perfetto.dev or chrome://tracing)\n"
        "  --metrics-out PATH  write the metrics registry as JSON; the same\n"
        "                      snapshot is merged into the BENCH record\n"
        "  --decisions PATH    write the algorithm decision log as JSON\n"
        "  --metrics-listen P  serve GET /metrics (OpenMetrics) and /healthz on\n"
        "                      127.0.0.1:P while the bench runs (0 = ephemeral)\n"
        "  --force             overwrite existing --*-out files instead of\n"
        "                      refusing to clobber them\n";
}

std::optional<Options> try_parse_options(int argc, char** argv, std::string* error) {
  Options opt;
  if (argc > 0 && argv[0] != nullptr) opt.bench_name = basename_of(argv[0]);
  const auto fail = [&](std::string msg) -> std::optional<Options> {
    if (error != nullptr) *error = std::move(msg);
    return std::nullopt;
  };
  const std::pair<std::string_view, std::string Options::*> text_flags[] = {
      {"--plot", &Options::plot_stem},         {"--json", &Options::json_path},
      {"--trace-out", &Options::trace_out},    {"--metrics-out", &Options::metrics_out},
      {"--decisions", &Options::decisions_out}};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    // `--flag=value` is `--flag value`: split it once, so each flag has one branch.
    const auto eq = arg.rfind("--", 0) == 0 ? arg.find('=') : std::string_view::npos;
    const std::string flag(arg.substr(0, eq));
    std::optional<std::string> value;
    if (eq != std::string_view::npos) value = std::string(arg.substr(eq + 1));
    const auto text = std::find_if(std::begin(text_flags), std::end(text_flags),
                                   [&](const auto& f) { return f.first == flag; });
    const bool number = flag == "--scale" || flag == "--jobs" || flag == "--metrics-listen";
    if (number || text != std::end(text_flags)) {
      if (!value && i + 1 < argc) value = argv[++i];
      if (!value) return fail(flag + " requires a value");
    } else if (value) {
      return fail("unknown option '" + std::string(arg) + "'");
    }
    // A number parses whole: "4x", "junk" and out-of-range text are refused.
    int n = 0;
    if (number) {
      const char* end = value->data() + value->size();
      const auto [stop, ec] = std::from_chars(value->data(), end, n);
      if (ec != std::errc{} || stop != end) {
        return fail(flag + " requires a whole number, not '" + *value + "'");
      }
    }
    if (flag == "--csv") {
      opt.csv = true;
    } else if (flag == "--quick") {
      opt.quick = true;
    } else if (flag == "--no-json") {
      opt.json = false;
    } else if (flag == "--force") {
      opt.force = true;
    } else if (flag == "--help" || flag == "-h") {
      opt.help = true;
    } else if (text != std::end(text_flags)) {
      opt.*(text->second) = *value;
    } else if (flag == "--scale") {
      opt.scale = static_cast<unsigned>(std::max(1, n));  // never a zero divisor
    } else if (flag == "--jobs") {
      if (n > exp::kMaxJobs) {
        return fail("--jobs " + *value + " is above the ceiling of " +
                    std::to_string(exp::kMaxJobs) + " worker threads");
      }
      opt.jobs = std::max(0, n);  // 0 and below: auto
    } else if (flag == "--metrics-listen") {
      if (n < 0 || n > 65535) return fail("--metrics-listen port must be in [0, 65535]");
      opt.metrics_listen = n;
    } else if (flag.rfind("--", 0) == 0) {
      return fail("unknown option '" + flag + "'");
    } else {
      return fail("unexpected argument '" + flag + "'");
    }
  }
  if (opt.quick) opt.scale = std::max(opt.scale, 32u);
  return opt;
}

std::optional<std::string> overwrite_refusal(const Options& opt) {
  if (opt.force) return std::nullopt;
  const std::string* outs[] = {&opt.trace_out, &opt.metrics_out, &opt.decisions_out};
  for (const auto* path : outs) {
    if (path->empty()) continue;
    std::error_code ec;
    if (std::filesystem::exists(*path, ec)) {
      return "refusing to overwrite existing '" + *path +
             "' (pass --force to replace it)";
    }
  }
  return std::nullopt;
}

Options parse_options(int argc, char** argv) {
  std::string error;
  auto opt = try_parse_options(argc, argv, &error);
  if (!opt) {
    std::cerr << "error: " << error << "\n";
    print_usage(std::cerr);
    std::exit(2);
  }
  if (opt->help) {
    print_usage(std::cout);
    std::exit(0);
  }
  if (const auto refusal = overwrite_refusal(*opt)) {
    std::cerr << "error: " << *refusal << "\n";
    std::exit(2);
  }
  return *opt;
}

void print_header(const testbeds::Testbed& t, const Options& opt) {
  std::cout << "== " << t.env.name << " ==\n"
            << "  link: " << Table::num(to_gbps(t.env.path.bandwidth), 1) << " Gbps, RTT "
            << Table::num(t.env.path.rtt * 1000.0, 1) << " ms, TCP buffer "
            << to_mb(t.env.path.tcp_buffer) << " MB, BDP "
            << Table::num(static_cast<double>(t.env.bdp()) / 1e6, 1) << " MB\n"
            << "  dataset: " << t.recipe.name << ", "
            << Table::num(to_gb(t.recipe.total_bytes / opt.scale), 1) << " GB"
            << (opt.scale > 1 ? " (scaled 1/" + std::to_string(opt.scale) + ")" : "")
            << "\n  DTN servers per site: " << t.env.source.servers.size() << "\n\n";
}

void emit(const Table& table, const Options& opt) {
  if (opt.csv) {
    table.render_csv(std::cout);
  } else {
    table.render(std::cout);
  }
  std::cout << '\n';
}

void write_bench_record(const Options& opt, exp::BenchRecord record) {
  if (!opt.json) return;
  if (record.name.empty()) record.name = opt.bench_name;
  record.commit = exp::bench_commit_stamp();
  record.jobs = exp::resolve_jobs(opt.jobs);
  record.scale = opt.scale;
  const std::string path =
      opt.json_path.empty() ? "BENCH_" + record.name + ".json" : opt.json_path;
  std::ofstream os(path);
  exp::write_bench_json(os, record);
  std::cout << "wrote " << path << " (" << record.tasks.size() << " tasks, jobs="
            << record.jobs << ")\n";
}

std::unique_ptr<obs::ObsCollector> make_collector(const Options& opt) {
  // A scrape listener needs a registry to expose even when nothing is being
  // written to disk, so --metrics-listen alone is enough to attach one.
  return opt.observing() || opt.metrics_listen >= 0
             ? std::make_unique<obs::ObsCollector>()
             : nullptr;
}

void write_obs_outputs(const Options& opt, const obs::ObsCollector& collector) {
  if (!opt.trace_out.empty()) {
    std::ofstream os(opt.trace_out);
    collector.write_chrome_trace(os);
    std::cout << "wrote " << opt.trace_out << " (Chrome trace; open in ui.perfetto.dev)\n";
  }
  if (!opt.metrics_out.empty()) {
    std::ofstream os(opt.metrics_out);
    collector.write_metrics_json(os);
    std::cout << "wrote " << opt.metrics_out << " (metrics registry)\n";
  }
  if (!opt.decisions_out.empty()) {
    std::ofstream os(opt.decisions_out);
    collector.write_decisions_json(os);
    std::cout << "wrote " << opt.decisions_out << " (algorithm decision log)\n";
  }
}

void print_histogram_percentiles(const Options& opt, const obs::ObsCollector& collector) {
  const auto metrics = collector.metrics().snapshot();
  Table table({"histogram", "count", "p50", "p90", "p99"});
  for (const auto& m : metrics) {
    if (m.kind != obs::MetricSnapshot::Kind::kHistogram || m.count == 0) continue;
    table.add_row({m.name, std::to_string(m.count),
                   Table::num(obs::histogram_quantile(m, 0.50), 1),
                   Table::num(obs::histogram_quantile(m, 0.90), 1),
                   Table::num(obs::histogram_quantile(m, 0.99), 1)});
  }
  if (table.rows() == 0) return;
  std::cout << "observed distributions (bucket-interpolated percentiles)\n";
  emit(table, opt);
}

namespace {

/// The figure grids shrink the byte total only: their band edges, and so
/// their largest files, stay at paper size (unlike testbeds::scaled).
testbeds::Testbed total_divided(testbeds::Testbed t, unsigned divisor) {
  t.recipe.total_bytes /= std::max(1u, divisor);
  return t;
}

}  // namespace

void run_concurrency_figure(const testbeds::Testbed& base, const Options& opt) {
  const auto t = total_divided(base, opt.scale);
  print_header(base, opt);
  const auto dataset = t.make_dataset();

  const auto algorithms = exp::figure_algorithms();
  const auto levels = exp::figure_concurrency_levels();

  // Declarative grid: one task per unique run. GUC and GO do not take a
  // concurrency parameter, so they contribute one task each and their
  // outcome is replicated across the x-axis below.
  const auto collector = make_collector(opt);
  std::vector<exp::SweepTask> tasks;
  std::vector<std::pair<exp::Algorithm, int>> keys;
  const auto add_task = [&](exp::Algorithm a, int level) {
    exp::SweepTask task;
    task.testbed = t;
    task.dataset = dataset;
    task.algorithm = a;
    task.concurrency = level;
    task.obs = collector.get();  // slot = submission index (one run() call)
    tasks.push_back(std::move(task));
    keys.emplace_back(a, level);
  };
  for (const auto a : algorithms) {
    for (const int level : levels) {
      if ((a == exp::Algorithm::kGuc || a == exp::Algorithm::kGo) &&
          level != levels.front()) {
        continue;
      }
      add_task(a, level);
    }
  }
  // Brute-force reference sweep for panel (c).
  for (const int level : exp::bf_concurrency_levels()) {
    add_task(exp::Algorithm::kBf, level);
  }

  const exp::SweepRunner runner(opt.jobs);
  const auto sweep_start = std::chrono::steady_clock::now();
  const auto results = runner.run(tasks);
  const double sweep_ms = elapsed_ms(sweep_start);

  std::map<std::pair<exp::Algorithm, int>, exp::RunOutcome> runs;
  std::map<int, exp::RunOutcome> bf;
  double best_bf_ratio = 0.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& [a, level] = keys[i];
    if (a == exp::Algorithm::kBf) {
      best_bf_ratio = std::max(best_bf_ratio, results[i].run.ratio());
      bf.emplace(level, results[i].run);
    } else {
      runs.emplace(std::make_pair(a, level), results[i].run);
    }
  }
  for (const auto a : {exp::Algorithm::kGuc, exp::Algorithm::kGo}) {
    for (const int level : levels) {
      if (level != levels.front()) {
        runs.emplace(std::make_pair(a, level), runs.at({a, levels.front()}));
      }
    }
  }

  auto header_row = [&] {
    std::vector<std::string> h{"concurrency"};
    for (const auto a : algorithms) h.emplace_back(exp::to_string(a));
    return h;
  };

  std::cout << "(a) Throughput (Mbps)\n";
  Table thr(header_row());
  for (const int level : levels) {
    std::vector<std::string> row{std::to_string(level)};
    for (const auto a : algorithms) {
      row.push_back(Table::num(runs.at({a, level}).throughput_mbps(), 0));
    }
    thr.add_row(std::move(row));
  }
  emit(thr, opt);

  std::cout << "(b) End-system energy (Joule)\n";
  Table en(header_row());
  for (const int level : levels) {
    std::vector<std::string> row{std::to_string(level)};
    for (const auto a : algorithms) {
      row.push_back(Table::num(runs.at({a, level}).energy(), 0));
    }
    en.add_row(std::move(row));
  }
  emit(en, opt);

  std::cout << "(c) Energy efficiency (throughput/energy, normalised to best BF)\n";
  Table eff(header_row());
  for (const int level : levels) {
    std::vector<std::string> row{std::to_string(level)};
    for (const auto a : algorithms) {
      row.push_back(Table::num(runs.at({a, level}).ratio() / best_bf_ratio, 3));
    }
    eff.add_row(std::move(row));
  }
  emit(eff, opt);

  std::cout << "(c) Brute-force sweep (normalised ratio by concurrency)\n";
  Table bft({"concurrency", "BF ratio"});
  for (const auto& [level, out] : bf) {
    bft.add_row({std::to_string(level), Table::num(out.ratio() / best_bf_ratio, 3)});
  }
  emit(bft, opt);

  if (!opt.plot_stem.empty()) {
    exp::SweepTable sweep;
    sweep.levels = levels;
    for (const auto& [key, out] : runs) sweep.outcomes[key.first][key.second] = out;
    {
      std::ofstream csv(opt.plot_stem + ".csv");
      exp::write_sweep_csv(csv, sweep);
    }
    {
      std::ofstream gp(opt.plot_stem + ".gp");
      exp::write_sweep_gnuplot(gp, sweep, opt.plot_stem + ".csv", opt.plot_stem);
    }
    std::cout << "wrote " << opt.plot_stem << ".csv and " << opt.plot_stem
              << ".gp (render: gnuplot " << opt.plot_stem << ".gp)\n\n";
  }

  // The figure's headline observations, recomputed from this run.
  const auto& htee12 = runs.at({exp::Algorithm::kHtee, 12});
  const auto& mine12 = runs.at({exp::Algorithm::kMinE, 12});
  const auto& sc12 = runs.at({exp::Algorithm::kSc, 12});
  const auto& promc12 = runs.at({exp::Algorithm::kProMc, 12});
  std::cout << "checks:\n"
            << "  HTEE chose concurrency " << htee12.chosen_concurrency
            << " (ratio = " << Table::num(100.0 * htee12.ratio() / best_bf_ratio, 1)
            << "% of best BF)\n"
            << "  MinE ratio = " << Table::num(100.0 * mine12.ratio() / best_bf_ratio, 1)
            << "% of best BF\n"
            << "  SC/MinE energy at cc=12: "
            << Table::num(100.0 * sc12.energy() / mine12.energy() - 100.0, 1)
            << "% extra for SC\n"
            << "  ProMC peak throughput: " << Table::num(promc12.throughput_mbps(), 0)
            << " Mbps\n\n";

  exp::BenchRecord record;
  record.total_wall_ms = sweep_ms;
  record.tasks = results;
  if (collector) {
    write_obs_outputs(opt, *collector);
    print_histogram_percentiles(opt, *collector);
    record.metrics = collector->metrics().snapshot();
  }
  write_bench_record(opt, std::move(record));
}

void run_sla_figure(const testbeds::Testbed& base, int promc_level, const Options& opt) {
  const auto t = total_divided(base, opt.scale);
  print_header(base, opt);
  const auto dataset = t.make_dataset();

  const exp::SweepRunner runner(opt.jobs);
  const auto sweep_start = std::chrono::steady_clock::now();

  // The ProMC maximum calibrates every SLA target, so it runs first (a
  // one-task sweep); the SLA grid then fans out in parallel. Two run() calls
  // means auto slots would collide at 0, so every task gets an explicit one.
  const auto collector = make_collector(opt);
  std::vector<exp::SweepTask> promc_tasks(1);
  promc_tasks[0].testbed = t;
  promc_tasks[0].dataset = dataset;
  promc_tasks[0].algorithm = exp::Algorithm::kProMc;
  promc_tasks[0].concurrency = promc_level;
  promc_tasks[0].obs = collector.get();
  promc_tasks[0].obs_slot = 0;
  auto promc_results = runner.run(promc_tasks);
  const auto& promc = promc_results[0].run;
  const BitsPerSecond max_thr = promc.result.avg_throughput();
  std::cout << "ProMC maximum throughput (cc=" << promc_level
            << "): " << Table::num(to_mbps(max_thr), 0)
            << " Mbps, energy " << Table::num(promc.energy(), 0) << " J\n\n";

  std::vector<exp::SweepTask> sla_tasks;
  for (const double target : exp::sla_target_percents()) {
    exp::SweepTask task;
    task.kind = exp::SweepTask::Kind::kSla;
    task.testbed = t;
    task.dataset = dataset;
    task.concurrency = 12;
    task.target_percent = target;
    task.max_throughput = max_thr;
    task.obs = collector.get();
    task.obs_slot = 1 + sla_tasks.size();
    sla_tasks.push_back(std::move(task));
  }
  const auto sla_results = runner.run(sla_tasks);
  const double sweep_ms = elapsed_ms(sweep_start);

  Table table({"target %", "target Mbps", "achieved Mbps", "energy J",
               "vs ProMC energy %", "deviation %", "final cc", "rearranged"});
  for (const auto& r : sla_results) {
    const auto& out = r.sla;
    table.add_row({Table::num(out.target_percent, 0),
                   Table::num(to_mbps(out.target_throughput), 0),
                   Table::num(out.achieved_mbps(), 0), Table::num(out.energy(), 0),
                   Table::num(100.0 * out.energy() / promc.energy() - 100.0, 1),
                   Table::num(out.deviation_percent(), 1),
                   std::to_string(out.final_concurrency),
                   out.rearranged ? "yes" : "no"});
  }
  std::cout << "SLA transfers (Figure panels a-c as columns)\n";
  emit(table, opt);

  exp::BenchRecord record;
  record.total_wall_ms = sweep_ms;
  record.tasks = std::move(promc_results);
  for (const auto& r : sla_results) {
    record.tasks.push_back(r);
    record.tasks.back().index = record.tasks.size() - 1;
  }
  if (collector) {
    write_obs_outputs(opt, *collector);
    print_histogram_percentiles(opt, *collector);
    record.metrics = collector->metrics().snapshot();
  }
  write_bench_record(opt, std::move(record));
}

}  // namespace eadt::bench
