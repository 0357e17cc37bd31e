#include "exp/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iomanip>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>

#include "exp/tick_pool.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "util/json.hpp"

namespace eadt::exp {

namespace {

/// splitmix64 finalizer: avalanches the base seed so that consecutive user
/// seeds (1, 2, 3...) land far apart before they meet the coordinate hash.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

const char* task_algorithm_name(const SweepTask& task) noexcept {
  return task.kind == SweepTask::Kind::kSla ? "SLAEE" : to_string(task.algorithm);
}

}  // namespace

std::uint64_t derive_task_seed(std::string_view algorithm, std::string_view testbed,
                               int concurrency, std::uint64_t base_seed) noexcept {
  // Coordinates are joined with an unambiguous separator so ("a","bc") and
  // ("ab","c") hash differently, then the avalanched base seed is folded in.
  std::string key;
  key.reserve(algorithm.size() + testbed.size() + 16);
  key.append(algorithm).push_back('\x1f');
  key.append(testbed).push_back('\x1f');
  key.append(std::to_string(concurrency));
  std::uint64_t h = fnv1a64(key) ^ mix64(base_seed);
  h = mix64(h);
  return h != 0 ? h : 0x9e3779b97f4a7c15ULL;  // keep the seed usable for Rng
}

int resolve_jobs(int requested) noexcept {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("EADT_JOBS"); env != nullptr) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void SweepRunner::parallel_indexed(int jobs, std::size_t count,
                                   const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(std::max(jobs, 1)), count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // One transient pool per call: sweep cells run for seconds, so the spawn
  // cost is noise here — the pool exists so the scheduler's tick pipeline
  // (which dispatches thousands of times per run) shares this exact fan-out
  // and its tests.
  TickPool pool(static_cast<int>(workers));
  pool.run(count, [](void* ctx, std::size_t i) {
    (*static_cast<const std::function<void(std::size_t)>*>(ctx))(i);
  }, const_cast<std::function<void(std::size_t)>*>(&fn));
}

namespace {

SweepTaskResult execute_task(const SweepTask& task, std::size_t index) {
  SweepTaskResult out;
  out.index = index;
  out.kind = task.kind;
  out.testbed = task.testbed.env.name;
  out.derived_seed = derive_task_seed(task_algorithm_name(task), task.testbed.env.name,
                                      task.concurrency, task.seed);

  // The task's private copies: the derived seed re-keys every stochastic
  // element, so two grid points never share a jitter or fault stream.
  testbeds::Testbed testbed = task.testbed;
  proto::FaultPlan faults = task.faults;
  if (task.seed != 0) {
    testbed.env.jitter_seed = out.derived_seed;
    if (faults.active()) faults.seed = mix64(out.derived_seed);
  }

  proto::SessionConfig config = task.config;
  if (task.obs != nullptr) {
    // The slot label is a pure function of the task's coordinates, so merged
    // exports name every process identically regardless of worker count.
    const std::size_t slot =
        task.obs_slot == SweepTask::kAutoSlot ? index : task.obs_slot;
    char suffix[48];
    if (task.kind == SweepTask::Kind::kSla) {
      std::snprintf(suffix, sizeof suffix, " target=%g%%", task.target_percent);
    } else {
      std::snprintf(suffix, sizeof suffix, " cc=%d", task.concurrency);
    }
    std::string label = "#";
    label += std::to_string(slot);
    label += ' ';
    label += task_algorithm_name(task);
    label += ' ';
    label += task.testbed.env.name;
    label += suffix;
    config.obs = task.obs->slot(slot, std::move(label));
  }

  const auto t0 = std::chrono::steady_clock::now();
  if (task.kind == SweepTask::Kind::kRun) {
    out.run = run_algorithm(task.algorithm, testbed, task.dataset, task.concurrency,
                            config, std::move(faults));
  } else {
    out.sla = run_slaee(testbed, task.dataset, task.target_percent, task.max_throughput,
                        task.concurrency, config, std::move(faults));
  }
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  return out;
}

}  // namespace

std::vector<SweepTaskResult> SweepRunner::run(const std::vector<SweepTask>& tasks) const {
  std::vector<SweepTaskResult> results(tasks.size());
  parallel_indexed(jobs_, tasks.size(),
                   [&](std::size_t i) { results[i] = execute_task(tasks[i], i); });
  return results;
}

// --- payload / JSON serialization ------------------------------------------

namespace {

/// C99 hex-float: bit-exact and locale-independent, the same trick the
/// checkpoint journal uses.
std::string hexf(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

void payload_result_fields(std::ostream& os, const proto::RunResult& r) {
  os << " completed=" << (r.completed ? 1 : 0) << " duration=" << hexf(r.duration)
     << " bytes=" << r.bytes << " goodput=" << r.goodput_bytes()
     << " end_j=" << hexf(r.end_system_energy) << " net_j=" << hexf(r.network_energy)
     << " final_cc=" << r.final_concurrency << " samples=" << r.samples.size()
     << " retries=" << r.faults.retries << " drops=" << r.faults.channel_drops
     << " wasted=" << r.faults.wasted_bytes;
  const auto& c = r.sim_counters;
  os << " sched=" << c.scheduled << " fired=" << c.fired << " cancelled=" << c.cancelled
     << " ticks=" << c.ticks << " peakq=" << c.peak_queue;
}

}  // namespace

std::string sweep_payload(const std::vector<SweepTaskResult>& results) {
  std::ostringstream os;
  for (const auto& t : results) {
    os << t.index << ' '
       << (t.kind == SweepTask::Kind::kRun ? to_string(t.run.algorithm) : "SLAEE")
       << " tb=" << t.testbed << " seed=" << t.derived_seed;
    if (t.kind == SweepTask::Kind::kRun) {
      os << " cc=" << t.run.concurrency << " chosen=" << t.run.chosen_concurrency;
    } else {
      os << " target%=" << hexf(t.sla.target_percent)
         << " target_bps=" << hexf(t.sla.target_throughput)
         << " final_cc=" << t.sla.final_concurrency
         << " rearranged=" << (t.sla.rearranged ? 1 : 0);
    }
    payload_result_fields(os, t.result());
    os << '\n';
  }
  return os.str();
}

std::string bench_commit_stamp() {
  if (const char* env = std::getenv("EADT_COMMIT"); env != nullptr && *env != '\0') {
    return env;
  }
#ifdef EADT_GIT_COMMIT
  return EADT_GIT_COMMIT;
#else
  return "unknown";
#endif
}

namespace {

/// Round-trip-exact decimal (17 significant digits): equal doubles always
/// print identically, so the JSON payload inherits the engine's determinism.
/// Not util/json's shortest form: the committed golden records are written
/// in this one.
std::string jnum(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

void json_task(std::ostream& os, const SweepTaskResult& t) {
  const auto& r = t.result();
  os << "    {\"index\":" << t.index << ",\"kind\":\""
     << (t.kind == SweepTask::Kind::kRun ? "run" : "sla") << "\",\"algorithm\":\""
     << (t.kind == SweepTask::Kind::kRun ? to_string(t.run.algorithm) : "SLAEE")
     << "\",\"testbed\":";
  write_json_string(os, t.testbed);
  os << ",\"concurrency\":"
     << (t.kind == SweepTask::Kind::kRun ? t.run.concurrency : t.sla.final_concurrency)
     << ",\"derived_seed\":" << t.derived_seed;
  if (t.kind == SweepTask::Kind::kRun) {
    os << ",\"chosen_concurrency\":" << t.run.chosen_concurrency;
  } else {
    os << ",\"target_percent\":" << jnum(t.sla.target_percent)
       << ",\"target_mbps\":" << jnum(to_mbps(t.sla.target_throughput))
       << ",\"deviation_percent\":" << jnum(t.sla.deviation_percent())
       << ",\"rearranged\":" << (t.sla.rearranged ? "true" : "false");
  }
  os << ",\"result\":{\"completed\":" << (r.completed ? "true" : "false")
     << ",\"duration_s\":" << jnum(r.duration) << ",\"bytes\":" << r.bytes
     << ",\"goodput_bytes\":" << r.goodput_bytes()
     << ",\"throughput_mbps\":" << jnum(to_mbps(r.avg_throughput()))
     << ",\"energy_j\":" << jnum(r.end_system_energy)
     << ",\"network_j\":" << jnum(r.network_energy)
     << ",\"ratio\":" << jnum(r.throughput_per_joule())
     << ",\"final_concurrency\":" << r.final_concurrency
     << ",\"retries\":" << r.faults.retries
     << ",\"wasted_bytes\":" << r.faults.wasted_bytes << "}";
  const auto& c = r.sim_counters;
  os << ",\"sim\":{\"scheduled\":" << c.scheduled << ",\"fired\":" << c.fired
     << ",\"cancelled\":" << c.cancelled << ",\"ticks\":" << c.ticks
     << ",\"peak_queue\":" << c.peak_queue << "}"
     << ",\"wall_ms\":" << jnum(t.wall_ms) << "}";
}

}  // namespace

void write_bench_json(std::ostream& os, const BenchRecord& record) {
  os << "{\n  \"schema\": \"eadt-bench-v1\",\n  \"name\": ";
  write_json_string(os, record.name);
  os << ",\n  \"commit\": ";
  write_json_string(os, record.commit);
  os << ",\n  \"jobs\": " << record.jobs << ",\n  \"scale\": " << record.scale
     << ",\n  \"total_wall_ms\": " << jnum(record.total_wall_ms)
     << ",\n  \"tasks\": [\n";
  for (std::size_t i = 0; i < record.tasks.size(); ++i) {
    json_task(os, record.tasks[i]);
    os << (i + 1 < record.tasks.size() ? ",\n" : "\n");
  }
  os << "  ]";
  if (!record.micro.empty()) {
    os << ",\n  \"micro\": [\n";
    for (std::size_t i = 0; i < record.micro.size(); ++i) {
      const MicroSample& m = record.micro[i];
      os << "    {\"name\":";
      write_json_string(os, m.name);
      os << ",\"ops\":" << m.ops << ",\"wall_ms\":" << jnum(m.wall_ms)
         << ",\"ops_per_sec\":" << jnum(m.ops_per_sec)
         << ",\"baseline_ops_per_sec\":" << jnum(m.baseline_ops_per_sec)
         << ",\"speedup\":" << jnum(m.speedup) << "}";
      os << (i + 1 < record.micro.size() ? ",\n" : "\n");
    }
    os << "  ]";
  }
  if (!record.service.empty()) {
    os << ",\n  \"service\": [\n";
    for (std::size_t i = 0; i < record.service.size(); ++i) {
      const ServiceScenarioRecord& s = record.service[i];
      os << "    {\"name\":";
      write_json_string(os, s.name);
      os << ",\"submitted\":" << s.submitted << ",\"accepted\":" << s.accepted
         << ",\"rejected\":" << s.rejected << ",\"completed\":" << s.completed
         << ",\"failed\":" << s.failed << ",\"preemptions\":" << s.preemptions
         << ",\"deferrals\":" << s.deferrals
         << ",\"max_concurrent\":" << s.max_concurrent
         << ",\"power_cap_violations\":" << s.power_cap_violations
         << ",\"sla_interactive_met\":" << s.sla_interactive_met
         << ",\"sla_interactive_completed\":" << s.sla_interactive_completed
         << ",\"makespan_s\":" << jnum(s.makespan_s) << ",\"bytes\":" << s.bytes
         << ",\"energy_j\":" << jnum(s.energy_j)
         << ",\"cost_usd\":" << jnum(s.cost_usd)
         << ",\"peak_power_w\":" << jnum(s.peak_power_w)
         << ",\"peak_power_bound_w\":" << jnum(s.peak_power_bound_w)
         << ",\"power_cap_w\":" << jnum(s.power_cap_w)
         << ",\"wall_ms\":" << jnum(s.wall_ms) << "}";
      os << (i + 1 < record.service.size() ? ",\n" : "\n");
    }
    os << "  ]";
  }
  if (!record.failover.empty()) {
    os << ",\n  \"failover\": [\n";
    for (std::size_t i = 0; i < record.failover.size(); ++i) {
      const FailoverScenarioRecord& f = record.failover[i];
      os << "    {\"name\":";
      write_json_string(os, f.name);
      os << ",\"jobs\":" << f.jobs << ",\"completed\":" << f.completed
         << ",\"failed\":" << f.failed << ",\"attempts\":" << f.attempts
         << ",\"migrations\":" << f.migrations
         << ",\"hedge_legs\":" << f.hedge_legs
         << ",\"power_cap_violations\":" << f.power_cap_violations
         << ",\"makespan_s\":" << jnum(f.makespan_s) << ",\"bytes\":" << f.bytes
         << ",\"energy_j\":" << jnum(f.energy_j)
         << ",\"hedge_energy_j\":" << jnum(f.hedge_energy_j)
         << ",\"wall_ms\":" << jnum(f.wall_ms) << "}";
      os << (i + 1 < record.failover.size() ? ",\n" : "\n");
    }
    os << "  ]";
  }
  if (record.telemetry != nullptr) {
    os << ",\n  \"telemetry\": ";
    record.telemetry->write_json(os, 2);
  }
  if (record.flightrec != nullptr && record.flightrec->triggers() > 0) {
    os << ",\n  \"flightrec\": ";
    record.flightrec->write_json(os, 2);
  }
  if (!record.metrics.empty()) {
    os << ",\n  \"metrics\": ";
    obs::write_metrics_object(os, record.metrics, 2);
  }
  os << "\n}\n";
}

}  // namespace eadt::exp
