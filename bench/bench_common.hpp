// Shared driver for the figure-reproduction binaries.
//
// Every bench prints (a) the testbed header, (b) the same series the paper's
// figure plots, as a table, and (c) the qualitative checks the paper's text
// makes about that figure. `--scale N` divides the dataset bytes by N for a
// quick run; `--csv` switches the tables to CSV. Sweeps fan out across a
// thread pool (`--jobs`, deterministic: bit-identical to `--jobs 1`), and
// each invocation records its grid, per-task wall times and simulation
// counters to BENCH_<name>.json (disable with `--no-json`).
#pragma once

#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "util/table.hpp"

namespace eadt::obs {
class ObsCollector;
}  // namespace eadt::obs

namespace eadt::bench {

struct Options {
  /// Basename of argv[0]; names the BENCH_<name>.json perf record.
  std::string bench_name = "bench";
  unsigned scale = 1;
  bool csv = false;
  /// When non-empty, concurrency figures also write <stem>.csv and a
  /// ready-to-run gnuplot script <stem>.gp.
  std::string plot_stem;
  /// Sweep worker count; 0 = auto (EADT_JOBS, then hardware_concurrency).
  /// The parser refuses more than exp::kMaxJobs.
  int jobs = 0;
  /// CI smoke preset: raises --scale to at least 32.
  bool quick = false;
  /// Write the BENCH_<name>.json perf record (default on).
  bool json = true;
  std::string json_path;  ///< overrides the default BENCH_<name>.json
  /// Observability exports, each off when empty: Chrome trace-event JSON
  /// (loadable in ui.perfetto.dev), standalone metrics JSON, and the
  /// algorithm decision log. Any non-empty path attaches an ObsCollector to
  /// the sweep; with all three empty the run is observation-free and its
  /// BENCH record is byte-identical to one from a build without obs.
  std::string trace_out;
  std::string metrics_out;
  std::string decisions_out;
  /// Serve GET /metrics (OpenMetrics) on 127.0.0.1:<port> while the bench's
  /// scheduler runs. 0 = ephemeral port, negative (default) = no listener.
  /// Implies a collector even when no --*-out flag asked for one.
  int metrics_listen = -1;
  /// Overwrite existing --trace-out/--metrics-out/--decisions files. Without
  /// it parse_options refuses to clobber (the BENCH json, which is a
  /// trajectory file meant to be overwritten, is exempt).
  bool force = false;
  bool help = false;

  [[nodiscard]] bool observing() const noexcept {
    return !trace_out.empty() || !metrics_out.empty() || !decisions_out.empty();
  }
};

/// Strict parser: unknown flags, stray positional arguments and missing
/// values are errors (`*error` explains which), not silently ignored.
[[nodiscard]] std::optional<Options> try_parse_options(int argc, char** argv,
                                                       std::string* error);

/// The clobber guard behind --force: returns the refusal message if any
/// requested --trace-out/--metrics-out/--decisions path already exists (and
/// --force was not given), nullopt when writing is safe. The BENCH json is
/// exempt — it is a perf-trajectory file meant to be rewritten every run.
/// parse_options exits with this message; tests call it directly.
[[nodiscard]] std::optional<std::string> overwrite_refusal(const Options& opt);

void print_usage(std::ostream& os);

/// try_parse_options, exiting with the usage message on error (status 2) or
/// on --help (status 0). The overload every bench main uses.
[[nodiscard]] Options parse_options(int argc, char** argv);

/// Testbed banner: Figure 1's specs for this environment.
void print_header(const testbeds::Testbed& t, const Options& opt);

void emit(const Table& table, const Options& opt);

/// Fill the invocation metadata (name/commit/jobs/scale) and write the
/// record to opt.json_path (default BENCH_<bench_name>.json). No-op when
/// --no-json was given.
void write_bench_record(const Options& opt, exp::BenchRecord record);

/// A collector iff some --trace-out/--metrics-out/--decisions flag asks for
/// one, or --metrics-listen wants a registry to scrape; null keeps the run on
/// the zero-cost unobserved path. Every bench that parses those flags must
/// either attach the collector to its runs and call write_obs_outputs, or
/// reject the flags — accepting them and silently writing nothing is a bug
/// (regression-tested in tests/test_bench_obs.cpp).
[[nodiscard]] std::unique_ptr<obs::ObsCollector> make_collector(const Options& opt);

/// Write whichever of the three observability exports were requested.
void write_obs_outputs(const Options& opt, const obs::ObsCollector& collector);

/// Percentile table (p50/p90/p99) of the session histograms — tick power,
/// per-class chunk energy, and anything else observed as a histogram — in the
/// human-readable output, not just the JSON exports. Prints nothing when no
/// histograms were recorded. Callers gate this on opt.observing(), which is
/// what keeps the default (unobserved) figure output byte-identical.
void print_histogram_percentiles(const Options& opt, const obs::ObsCollector& collector);

/// Figures 2/3/4: throughput, energy and efficiency vs concurrency for the
/// six algorithms, plus the brute-force reference sweep.
void run_concurrency_figure(const testbeds::Testbed& base, const Options& opt);

/// Figures 5/6/7: SLAEE at {95,90,80,70,50}% of the ProMC maximum.
void run_sla_figure(const testbeds::Testbed& base, int promc_level, const Options& opt);

}  // namespace eadt::bench
