#include "common.hpp"

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "trace.hpp"

namespace perfbench {

namespace {
volatile std::uint64_t probe_sink = 0;

std::uint64_t probe_walk(std::vector<std::uint64_t>& buf, int steps) {
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t acc = 0;
  const std::size_t mask = buf.size() - 1;  // sizes are powers of two
  for (int i = 0; i < steps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += buf[x & mask]++;
  }
  return acc;
}
}  // namespace

SpeedProbe::SpeedProbe() : small_(std::size_t{1} << 20, 1), large_(std::size_t{1} << 23, 1) {}

double SpeedProbe::read() {
  const auto start = Clock::now();
  probe_sink = probe_walk(small_, 3'000'000) + probe_walk(large_, 1'000'000);
  factors_.push_back(kReferenceS / seconds_since(start));
  return factors_.back();
}

double SpeedProbe::pass_factor() {
  const double before = factors_.empty() ? read() : factors_.back();
  return 0.5 * (before + read());
}

double SpeedProbe::resident_mb() const {
  return static_cast<double>((small_.size() + large_.size()) * sizeof(std::uint64_t)) /
         (1024.0 * 1024.0);
}

double resident_anon_mb() {
  // smaps_rollup walks the page tables, so unlike VmHWM and ru_maxrss it is
  // exact rather than a sum of per-CPU counters that lag by up to a MiB.
  std::ifstream rollup("/proc/self/smaps_rollup");
  std::string line;
  while (std::getline(rollup, line)) {
    double kib = 0.0;
    if (std::sscanf(line.c_str(), "Anonymous: %lf", &kib) == 1) return kib / 1024.0;
  }
  return 0.0;
}

void release_free_heap() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

std::uint64_t seed_offset(std::uint64_t variant, std::uint64_t stream) {
  if (variant == 0) return 0;
  // splitmix64 over (variant, stream); 40 bits keep base + offset far from
  // overflow while still separating every (variant, stream) pair.
  std::uint64_t z = variant * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return (z >> 24) | 1;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t session_ticks(const eadt::exp::SchedulerReport& report, double tick) {
  std::uint64_t n = 0;
  for (const auto& job : report.jobs) {
    n += static_cast<std::uint64_t>(std::llround(job.result.duration / tick));
  }
  return n;
}

bool scheduler_books_ok(const eadt::exp::SchedulerReport& report) {
  return report.accounting_consistent() && report.power_cap_violations == 0;
}

ProfilerTotals profiler_totals(const eadt::obs::MetricsRegistry& registry, int workers,
                               int passes) {
  ProfilerTotals t;
  t.worker_ops.assign(static_cast<std::size_t>(std::max(workers, 0)), 0.0);
  for (const auto& m : registry.snapshot()) {
    if (m.kind == eadt::obs::MetricSnapshot::Kind::kHistogram) {
      if (m.name == "tickpipe.prepare_us") {
        t.prepare_us = m.value;
        t.ticks = m.count;
      } else if (m.name == "tickpipe.arbiter_us") {
        t.arbiter_us = m.value;
      } else if (m.name == "tickpipe.apply_us") {
        t.apply_us = m.value;
      } else if (m.name == "tickpipe.commit_us") {
        t.commit_us = m.value;
      }
    } else if (m.kind == eadt::obs::MetricSnapshot::Kind::kGauge) {
      for (std::size_t w = 0; w < t.worker_ops.size(); ++w) {
        if (m.name == "tickpipe.worker" + std::to_string(w) + ".ops") {
          t.worker_ops[w] = m.value;
        }
      }
    }
  }
  const double per = 1.0 / std::max(passes, 1);
  t.ticks = static_cast<std::uint64_t>(std::llround(static_cast<double>(t.ticks) * per));
  t.prepare_us *= per;
  t.arbiter_us *= per;
  t.apply_us *= per;
  t.commit_us *= per;
  return t;
}

void put_scheduler_metrics(const ProfilerTotals& prof, double run_span_s,
                           const std::vector<const eadt::exp::SchedulerReport*>& reports,
                           std::map<std::string, double>& m) {
  const double phases_us = prof.phases_us();
  m["scheduler.master_ticks"] = static_cast<double>(prof.ticks);
  m["scheduler.prepare_ms"] = prof.prepare_us * 1e-3;
  m["scheduler.arbiter_ms"] = prof.arbiter_us * 1e-3;
  m["scheduler.apply_ms"] = prof.apply_us * 1e-3;
  m["scheduler.commit_ms"] = prof.commit_us * 1e-3;
  m["scheduler.outside_ms"] = run_span_s * 1e3 - phases_us * 1e-3;
  if (phases_us > 0.0) {
    m["scheduler.serial_share"] = (prof.arbiter_us + prof.commit_us) / phases_us;
  }
  double dispatches = 0.0;
  double preemptions = 0.0;
  double shed = 0.0;
  double migrations = 0.0;
  for (const auto* r : reports) {
    for (const auto& job : r->jobs) dispatches += job.attempts;
    preemptions += r->preemptions;
    shed += r->rejected;
    migrations += r->migrations;
  }
  m["scheduler.dispatches"] = dispatches;
  m["scheduler.preemptions"] = preemptions;
  m["scheduler.shed"] = shed;
  m["scheduler.migrations"] = migrations;
}

void add_recovery_metrics(const eadt::exp::RecoveryLog& log,
                          std::map<std::string, double>& m) {
  using eadt::exp::RecoveryAction;
  m["proto.checkpoints"] +=
      log.count(RecoveryAction::kPreempt) + log.count(RecoveryAction::kDeadlineAbort);
  m["proto.resumes"] += log.count(RecoveryAction::kResume);
}

namespace {

/// Each cycle ends with a batch of set-ups, whole cycles of them, until the
/// batch holds this much set-up time.
constexpr double kSetupBatchS = 0.1;

/// The speed probe is read after a pass once this long has gone by since the
/// last reading, and at the end of every cycle: long passes each get a
/// factor of their own, and short ones share one, so the probe does not
/// flush the caches before every few-millisecond pass.
constexpr double kProbeEveryS = 0.5;

/// The quantile task_p90_ms reports: 0.9, or the highest one with at least
/// ten of the run's `n` task samples beyond it, and the median at the least.
/// A run with a handful of tasks reads its slowest one otherwise, a single
/// outlier.
double tail_quantile(std::size_t n) {
  return std::clamp(1.0 - 10.0 / static_cast<double>(n), 0.5, 0.9);
}

/// Run `body` back to back until `seconds` of wall time have gone by, and
/// at least `min_runs` times.
template <typename Body>
void repeat_for(double seconds, int min_runs, Body&& body) {
  const auto start = Clock::now();
  for (int n = 0; n < min_runs || seconds_since(start) < seconds; ++n) body();
}

/// The correctness gate every pass of a run goes through: the workload's own
/// checks, and each payload byte-equal to the first pass of its variant.
/// The digest chains every variant's first payload.
class Gate {
 public:
  Gate(int variants, Outcome& out) : reference_(static_cast<std::size_t>(variants)), out_(out) {}

  void check(int k, const Pass& p) {
    std::string& ref = reference_[static_cast<std::size_t>(k)];
    if (ref.empty()) {
      ref = p.payload;
      digest_ = fnv1a(p.payload, digest_);
      out_.digest = hex64(digest_);
    }
    out_.attempted += p.attempted;
    out_.shed += p.shed;
    if (p.ok && p.payload == ref) {
      out_.failed += p.failed;
    } else {
      out_.correct = false;
      out_.failed += p.attempted;
    }
  }

 private:
  std::vector<std::string> reference_;
  std::uint64_t digest_ = kFnvBasis;
  Outcome& out_;
};

}  // namespace

Outcome measure(const RunOptions& opt, const Workload& w) {
  Outcome out;
  Gate gate(w.variants, out);
  SpeedProbe& probe = *opt.probe;
  const int kv = w.variants;
  const auto variant = [&](int k) {
    return opt.seed * static_cast<std::uint64_t>(kv) + static_cast<std::uint64_t>(k);
  };

  // One timed unit: a pass, or a cycle's set-up batch (then `wall` is its
  // mean set-up time per variant). Its factor comes from the probe readings
  // on either side of the stretch it ran in.
  struct Sample {
    int cycle = 0;
    bool setup = false;
    double wall = 0.0;
    double serial = 0.0;
    std::uint64_t ticks = 0;
    std::vector<double> task_ms;
    double factor = 1.0;
  };
  std::vector<Sample> samples;
  std::size_t unscaled = 0;  // first sample still waiting for its factor
  Clock::time_point last_read;
  const auto read_probe = [&] {
    const double f = probe.pass_factor();
    for (; unscaled < samples.size(); ++unscaled) samples[unscaled].factor = f;
    last_read = Clock::now();
  };
  (void)probe.read();
  last_read = Clock::now();

  // Whole cycles only, so every variant weighs the same.
  int cycles = 0;
  repeat_for(opt.seconds, w.min_cycles, [&] {
    for (int k = 0; k < kv; ++k) {
      const Runner run = w.prepare(variant(k), nullptr);
      Pass p = run(nullptr);
      // Read with the pass's inputs and outputs live, after the run's first
      // pass only: each later pass leaves the heap a little more fragmented,
      // by an amount that depends on the variants drawn before it.
      if (cycles == 0 && k == 0) {
        release_free_heap();
        out.metrics["peak_rss_mb"] = resident_anon_mb() - probe.resident_mb();
      }
      gate.check(k, p);
      samples.push_back({cycles, false, p.wall_s,
                         p.serial_wall_s > 0.0 ? p.serial_wall_s : p.wall_s, p.ticks,
                         std::move(p.task_ms)});
      if (seconds_since(last_read) >= kProbeEveryS) read_probe();
    }
    // The set-up batch comes after the passes, so no set-up has touched the
    // heap before the memory reading. Freeing the unused inputs is not timed.
    double spent = 0.0;
    int setups = 0;
    while (spent < kSetupBatchS) {
      for (int k = 0; k < kv; ++k, ++setups) {
        const auto t0 = Clock::now();
        const Runner unused = w.prepare(variant(k), nullptr);
        spent += seconds_since(t0);
      }
    }
    samples.push_back({cycles, true, spent / setups, 0.0, 0, {}});
    read_probe();
    ++cycles;
  });

  // Times per pass (a cycle's mean), medians over cycles.
  const auto summarise = [&](bool scaled) {
    std::vector<double> cycle_wall(static_cast<std::size_t>(cycles));
    std::vector<double> cycle_serial(static_cast<std::size_t>(cycles));
    std::vector<double> cycle_ticks(static_cast<std::size_t>(cycles));
    std::vector<std::vector<double>> cycle_tasks(static_cast<std::size_t>(cycles));
    std::size_t n_tasks = 0;
    std::vector<double> setups;
    for (const Sample& x : samples) {
      const double f = scaled ? x.factor : 1.0;
      const auto c = static_cast<std::size_t>(x.cycle);
      if (x.setup) {
        setups.push_back(x.wall * f);
        continue;
      }
      cycle_wall[c] += x.wall * f;
      cycle_serial[c] += x.serial * f;
      cycle_ticks[c] += static_cast<double>(x.ticks);
      for (const double t : x.task_ms) cycle_tasks[c].push_back(t * f);
      n_tasks += x.task_ms.size();
    }
    // The task quantiles are taken within each cycle too, so a slowdown
    // that hits a few tasks of one cycle does not become the run's tail.
    std::vector<double> walls;
    std::vector<double> serials;
    std::vector<double> rates;
    std::vector<double> p50s;
    std::vector<double> p90s;
    for (std::size_t c = 0; c < cycle_wall.size(); ++c) {
      walls.push_back(cycle_wall[c] / kv);
      serials.push_back(cycle_serial[c] / kv);
      rates.push_back(cycle_ticks[c] / cycle_wall[c]);
      p50s.push_back(median(cycle_tasks[c]));
      p90s.push_back(quantile(cycle_tasks[c], tail_quantile(n_tasks)));
    }
    return std::map<std::string, double>{
        {"wall_s", median(walls)},
        {"serial_wall_s", median(serials)},
        {"ticks_per_s", median(rates)},
        {"task_p50_ms", median(p50s)},
        {"task_p90_ms", median(p90s)},
        {"setup_s", median(setups)},
    };
  };
  for (const auto& [name, v] : summarise(true)) out.metrics[name] = v;
  std::string raw = "raw (unscaled) times:";
  for (const auto& [name, v] : summarise(false)) raw += " " + name + "=" + std::to_string(v);
  std::vector<double> factors;
  std::size_t tasks = 0;
  for (const Sample& x : samples) {
    factors.push_back(x.factor);
    tasks += x.task_ms.size();
  }
  out.notes.push_back("cycles " + std::to_string(cycles) + " of " + std::to_string(kv) +
                      " variants, task samples " + std::to_string(tasks) +
                      " (task_p90_ms is their quantile " + std::to_string(tail_quantile(tasks)) +
                      "), median probe factor " + std::to_string(median(factors)) +
                      " (times are raw x factor)");
  out.notes.push_back(raw);
  return out;
}

int trace_passes(const RunOptions& opt, const Workload& w, Outcome& out) {
  Gate gate(1, out);
  const std::uint64_t v0 = opt.seed * static_cast<std::uint64_t>(w.variants);
  std::vector<double> plain;
  std::vector<double> traced;
  repeat_for(opt.seconds, 1, [&] {
    const Pass p = w.prepare(v0, nullptr)(nullptr);
    gate.check(0, p);
    plain.push_back(p.wall_s);
    Span root(opt.tracer, "bench/pass");
    const Pass t = w.prepare(v0, opt.tracer)(opt.tracer);
    gate.check(0, t);
    traced.push_back(t.wall_s);
  });
  out.metrics["obs.trace_overhead"] = median(traced) / median(plain) - 1.0;
  return static_cast<int>(traced.size());
}

}  // namespace perfbench
