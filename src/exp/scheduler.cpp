#include "exp/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <span>
#include <type_traits>
#include <utility>

#include "exp/tick_pool.hpp"
#include "net/tcp_model.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "power/end_system.hpp"

namespace eadt::exp {

const char* to_string(SlaClass cls) noexcept {
  switch (cls) {
    case SlaClass::kInteractive: return "interactive";
    case SlaClass::kStandard: return "standard";
    case SlaClass::kScavenger: return "scavenger";
  }
  return "?";
}

SlaClass sla_class_of(JobPolicy policy) noexcept {
  switch (policy) {
    case JobPolicy::kDeadline:
    case JobPolicy::kSla: return SlaClass::kInteractive;
    case JobPolicy::kBalanced:
    case JobPolicy::kEnergyBudget: return SlaClass::kStandard;
    case JobPolicy::kGreen: return SlaClass::kScavenger;
  }
  return SlaClass::kStandard;
}

Watts session_peak_power_bound(const proto::Environment& env) {
  // Eq. 1 with every utilization at its clamp (1.0) and Eq. 2 at its worst
  // admissible core count: the polynomial is convex, so its maximum over
  // 1..cores is at an endpoint. One session can at most activate every
  // server of both endpoints, each drawing its activation base on top.
  const auto side = [](const proto::Endpoint& ep) {
    Watts w = 0.0;
    for (const auto& s : ep.servers) {
      const double coef = std::max(power::cpu_coefficient(1),
                                   power::cpu_coefficient(std::max(1, s.cores)));
      w += ep.power.active_base + ep.power.cpu_scale * coef + ep.power.mem +
           ep.power.disk + ep.power.nic;
    }
    return w;
  };
  return side(env.source) + side(env.destination);
}

std::string scheduler_report_payload(const SchedulerReport& report) {
  std::string out;
  out.reserve(256 + report.jobs.size() * 512);
  const auto hexf = [&out](const char* key, double v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%s=%a\n", key, v);
    out += buf;
  };
  const auto intf = [&out](const char* key, long long v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%s=%lld\n", key, v);
    out += buf;
  };
  for (const TenantOutcome& t : report.jobs) {
    out += "job ";
    out += t.name;
    out += '\n';
    out += "policy=";
    out += to_string(t.policy);
    out += '\n';
    out += "class=";
    out += to_string(t.sla_class);
    out += '\n';
    hexf("submitted_at", t.submitted_at);
    hexf("started_at", t.started_at);
    hexf("finished_at", t.finished_at);
    intf("rejected", t.rejected ? 1 : 0);
    intf("failed", t.failed ? 1 : 0);
    intf("sla_met", t.sla_met ? 1 : 0);
    intf("attempts", t.attempts);
    intf("preemptions", t.preemptions);
    intf("deferrals", t.deferrals);
    intf("migrations", t.migrations);
    intf("path", t.path);
    if (t.hedge_legs > 0) {  // unhedged tenants keep their bytes
      intf("hedge_legs", t.hedge_legs);
      hexf("hedge_energy", t.hedge_energy);
    }
    hexf("cost_usd", t.cost_usd);
    const proto::RunResult& r = t.result;
    hexf("duration", r.duration);
    intf("bytes", static_cast<long long>(r.bytes));
    hexf("end_system_energy", r.end_system_energy);
    hexf("network_energy", r.network_energy);
    intf("final_concurrency", r.final_concurrency);
    intf("completed", r.completed ? 1 : 0);
    intf("retries", r.faults.retries);
    intf("channel_drops", r.faults.channel_drops);
    intf("checksum_failures", r.faults.checksum_failures);
    intf("server_outages", r.faults.server_outages);
    intf("wasted_bytes", static_cast<long long>(r.faults.wasted_bytes));
    hexf("wasted_joules", r.faults.wasted_joules);
    hexf("channel_downtime", r.faults.channel_downtime);
    for (const proto::SampleStats& s : r.samples) {
      hexf("s.start", s.window_start);
      hexf("s.end", s.window_end);
      intf("s.bytes", static_cast<long long>(s.bytes));
      hexf("s.energy", s.end_system_energy);
      intf("s.channels", s.active_channels);
      intf("s.down", s.down_channels);
    }
    for (const RecoveryEvent& e : t.recovery.events) {
      hexf("r.at", e.at);
      intf("r.attempt", e.attempt);
      out += "r.action=";
      out += to_string(e.action);
      out += '\n';
      out += "r.policy=";
      out += e.policy;
      out += '\n';
      intf("r.max_channels", e.max_channels);
    }
  }
  out += "aggregate\n";
  intf("submitted", report.submitted);
  intf("accepted", report.accepted);
  intf("rejected", report.rejected);
  intf("completed", report.completed);
  intf("failed", report.failed);
  intf("preemptions", report.preemptions);
  intf("deferrals", report.deferrals);
  intf("migrations", report.migrations);
  hexf("makespan", report.makespan);
  intf("total_bytes", static_cast<long long>(report.total_bytes));
  hexf("total_energy", report.total_energy);
  hexf("total_cost_usd", report.total_cost_usd);
  hexf("peak_power", report.peak_power);
  hexf("peak_power_bound", report.peak_power_bound);
  intf("power_cap_violations", report.power_cap_violations);
  intf("max_concurrent", report.max_concurrent_observed);
  for (const SlaClassStats* c :
       {&report.interactive, &report.standard, &report.scavenger}) {
    intf("c.submitted", c->submitted);
    intf("c.rejected", c->rejected);
    intf("c.completed", c->completed);
    intf("c.failed", c->failed);
    intf("c.sla_met", c->sla_met);
  }
  return out;
}

namespace {

[[nodiscard]] int class_rank(SlaClass cls) noexcept {
  switch (cls) {
    case SlaClass::kInteractive: return 0;
    case SlaClass::kStandard: return 1;
    case SlaClass::kScavenger: return 2;
  }
  return 1;
}

/// Degradation-ladder cursor: a tenant's current operating point (policy +
/// channel cap) and the aborts seen at it.
struct LadderState {
  JobPolicy policy;
  int channels = 1;
  int aborts_at_point = 0;

  /// Register one abort at the current operating point. When the policy's
  /// tolerance is spent, steps down one rung — first halve channels (floored;
  /// a cap of two or more never halves below one), then the kGreen fallback
  /// — and reports which rung was taken; nullopt when the ladder held
  /// position (tolerance remaining, or already at bottom).
  std::optional<RecoveryAction> on_abort(const SupervisorPolicy& p) {
    ++aborts_at_point;
    if (aborts_at_point < p.degrade_after) return std::nullopt;
    if (channels > 1) {
      channels /= 2;
      aborts_at_point = 0;
      return RecoveryAction::kReduceChannels;
    }
    if (policy != JobPolicy::kGreen) {
      policy = JobPolicy::kGreen;
      aborts_at_point = 0;
      return RecoveryAction::kPolicyFallback;
    }
    return std::nullopt;
  }
};

/// Below this many running tenants the pool handshake costs more than the
/// phases it would shard, so the tick stays serial. Purely a wall-clock
/// cutoff: the output is byte-identical either way.
constexpr std::size_t kMinParallelTenants = 16;

/// Wall-clock lap timer for the tick pipeline's phases. Inert (never reads
/// the clock) without a profiler, so the deterministic path costs nothing.
struct PhaseTimer {
  explicit PhaseTimer(obs::TickProfiler* profiler) : prof(profiler) {
    if (prof != nullptr) last = std::chrono::steady_clock::now();
  }
  void lap(obs::TickProfiler::Phase phase) {
    if (prof == nullptr) return;
    const auto now = std::chrono::steady_clock::now();
    prof->observe(phase, std::chrono::duration<double, std::micro>(now - last).count());
    last = now;
  }
  obs::TickProfiler* prof;
  std::chrono::steady_clock::time_point last;
};

/// Tenants per pool index in a sharded tick phase. The pool cuts its
/// indices into one contiguous block per worker and lets a worker that is
/// done help with the others', so a chunk is the unit a slow or descheduled
/// worker's block is taken over in: 0.3-2 us of work per phase on the
/// fleet_1k schedule, against one uncontended atomic claim.
constexpr std::size_t kTenantsPerChunk = 8;

/// One tick phase over [0, count): inline in index order without a pool;
/// with one, in chunks of kTenantsPerChunk tenants, one pool index each.
/// Worker w's block is the w-th contiguous slice of the tenants, so while
/// the workers keep pace a tenant's session stays on one thread, in one
/// core's cache, across the phases and ticks. The phase state is passed by
/// address as the pool's context — no std::function, no allocation on the
/// tick path.
template <typename Fn>
void run_phase(TickPool* pool, std::size_t count, Fn&& fn) {
  if (pool == nullptr) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  struct Phase {
    std::remove_reference_t<Fn>* fn;
    std::size_t count;
  } phase{&fn, count};
  pool->run(
      (count + kTenantsPerChunk - 1) / kTenantsPerChunk,
      [](void* ctx, std::size_t c) {
        const Phase& p = *static_cast<const Phase*>(ctx);
        const std::size_t end = std::min(p.count, (c + 1) * kTenantsPerChunk);
        for (std::size_t i = c * kTenantsPerChunk; i < end; ++i) (*p.fn)(i);
      },
      &phase);
}

}  // namespace

/// One tenant's live state. `out` accumulates the reportable fate; the rest
/// is the machinery of the current leg.
struct Scheduler::Tenant {
  std::size_t index = 0;
  SchedulerJob spec;
  LadderState ladder{JobPolicy::kBalanced, 1};
  std::optional<proto::TransferCheckpoint> journal;
  std::unique_ptr<proto::TransferSession> session;
  std::unique_ptr<proto::Controller> controller;
  obs::ObsSinks* sinks = nullptr;
  Seconds attempt_started = 0.0;   ///< raw clock at the current leg's begin()
  Seconds attempt_deadline = 0.0;  ///< watchdog for the current leg (0 = none)
  int deadline_aborts = 0;  ///< watchdog aborts only; preemptions don't count
  int path = 0;             ///< current placement: index into the path table
  enum class State { kPending, kQueued, kDeferred, kRunning, kDone } state = State::kPending;
  /// > 0: the last abort projected a finish past the job deadline, so the
  /// next dispatch also starts a second leg.
  Seconds hedge_projection = 0.0;
  /// The hedge race's second leg: a record that runs through the tick like
  /// any tenant but is never queued, watchdogged or preempted itself. Live
  /// while its session is; kept afterwards (one race per tenant).
  std::unique_ptr<Tenant> leg;
  Tenant* racing_for = nullptr;  ///< on a second leg: the tenant it races for
  TenantOutcome out;

  [[nodiscard]] bool racing() const noexcept { return leg != nullptr && leg->session; }
  /// Where the tenant's transfer clock stands between legs: its journal's
  /// taken_at (the last leg's duration, not rounded through the raw clock),
  /// or 0 before any leg. Recovery events are stamped with it.
  [[nodiscard]] Seconds transfer_time() const noexcept {
    return journal ? journal->taken_at : out.result.duration;
  }
};

Scheduler::Scheduler(testbeds::Testbed testbed, BitsPerSecond reference_rate,
                     SchedulerPolicy policy, proto::SessionConfig base_config)
    : testbed_(std::move(testbed)), reference_rate_(reference_rate), policy_(policy),
      base_config_(base_config) {
  policy_.max_concurrent = std::max(1, policy_.max_concurrent);
  policy_.max_queue_depth = std::max(1, policy_.max_queue_depth);
  if (reference_rate_ <= 0.0) reference_rate_ = probe_reference_rate(testbed_, base_config_);
}

Scheduler::~Scheduler() = default;

void Scheduler::record(Tenant& t, RecoveryAction action, Seconds at,
                       std::string detail) {
  t.out.recovery.events.push_back({at, std::max(1, t.out.attempts), action,
                                   to_string(t.ladder.policy), t.ladder.channels,
                                   detail});
  obs::ObsSinks* s = t.sinks;
  if (s == nullptr) return;
  if (s->metrics != nullptr) s->metrics->counter(recovery_metric(action)).add(1);
  if (s->decisions != nullptr) {
    obs::Decision d;
    d.at = at;
    d.kind = recovery_decision_kind(action);
    d.actor = "Scheduler";
    d.level = t.ladder.channels;
    d.chosen = t.ladder.channels;
    d.subject = std::string(to_string(action)) + " " + t.out.name + " (" +
                to_string(t.ladder.policy) + ")";
    d.detail = std::move(detail);
    s->decisions->record(std::move(d));
  }
}

void Scheduler::decide(Tenant& t, obs::DecisionKind kind, Seconds at, std::string subject,
                       std::string detail) {
  obs::ObsSinks* s = t.sinks;
  if (s == nullptr || s->decisions == nullptr) return;
  obs::Decision d;
  d.at = at;
  d.kind = kind;
  d.actor = "Scheduler";
  d.level = t.ladder.channels;
  d.chosen = static_cast<int>(running_.size());
  d.subject = std::move(subject);
  d.detail = std::move(detail);
  s->decisions->record(std::move(d));
}

Seconds Scheduler::defer_delay(const Tenant& t) const {
  if (!tariff_ || policy_.max_defer <= 0.0) return 0.0;
  if (t.out.sla_class != SlaClass::kScavenger) return 0.0;
  const Seconds abs = tariff_start_ + sim_.now();
  const double now_price = tariff_->price_at(abs);
  const Seconds target = tariff_->cheapest_hour() * 3600.0;
  Seconds tod = std::fmod(abs, power::kSecondsPerDay);
  Seconds delay = target - tod;
  if (delay < 0.0) delay += power::kSecondsPerDay;
  if (delay <= 0.0 || delay > policy_.max_defer) return 0.0;
  if (tariff_->price_at(abs + delay) >= now_price) return 0.0;  // already cheap
  return delay;
}

void Scheduler::on_submit(Tenant& t) {
  ++report_.submitted;
  // Bounded admission: the waiting room (queued + deferred) is finite and
  // overflow is an explicit, accounted rejection — never a silent drop.
  const int waiting = static_cast<int>(queue_.size()) + deferred_;
  // Shed only when no site could ever host one session under its cap.
  bool over_cap = true;
  for (std::size_t p = 0; p < path_cap_.size(); ++p) {
    if (path_cap_[p] <= 0.0 || path_session_peak_[p] <= path_cap_[p]) over_cap = false;
  }
  if (waiting >= policy_.max_queue_depth || over_cap) {
    t.out.rejected = true;
    t.out.finished_at = sim_.now();
    ++report_.rejected;
    record(t, RecoveryAction::kShed, sim_.now(),
           over_cap ? "one session's peak draw cannot fit under the site power cap"
                    : "waiting queue full (" + std::to_string(waiting) + "/" +
                          std::to_string(policy_.max_queue_depth) + ")");
    retire(t);
    return;
  }
  ++report_.accepted;
  decide(t, obs::DecisionKind::kSchedulerAdmit, sim_.now(), "admit " + t.out.name,
         std::string("class ") + to_string(t.out.sla_class) + ", queue depth " +
             std::to_string(waiting));
  if (const Seconds delay = defer_delay(t); delay > 0.0) {
    t.state = Tenant::State::kDeferred;
    ++t.out.deferrals;
    ++report_.deferrals;
    ++deferred_;
    record(t, RecoveryAction::kDefer, sim_.now(),
           "shifting the start " + std::to_string(delay) +
               " s into the tariff's cheapest band");
    Tenant* tp = &t;
    sim_.schedule_after(delay, [this, tp] {
      if (tp->state != Tenant::State::kDeferred) return;
      --deferred_;
      enqueue(*tp);
      try_dispatch();
    });
    return;
  }
  enqueue(t);
  try_dispatch();
}

void Scheduler::enqueue(Tenant& t) {
  t.state = Tenant::State::kQueued;
  // Class-priority insertion, stable within a class: interactive jobs pass
  // waiting batch work, scavengers go last.
  const int rank = class_rank(t.out.sla_class);
  auto it = queue_.begin();
  while (it != queue_.end() && class_rank((*it)->out.sla_class) <= rank) ++it;
  queue_.insert(it, &t);
}

bool Scheduler::can_dispatch(const Tenant&) const {
  if (static_cast<int>(running_.size()) >= policy_.max_concurrent) return false;
  return pick_path() >= 0;
}

int Scheduler::pick_path(int exclude) const {
  // Prefer healthy sites; when every path has failed health, a capped-but-alive
  // placement still beats refusing service, so retry ignoring the verdict.
  for (const bool allow_failed : {false, true}) {
    int best = -1;
    double best_phi = 0.0;
    for (int p = 0; p < static_cast<int>(path_envs_.size()); ++p) {
      if (p == exclude || (!allow_failed && health_->failed(p))) continue;
      const Watts cap = path_cap_[p];
      if (cap > 0.0 && path_running_peak_[p] + path_session_peak_[p] > cap + 1e-9) {
        continue;  // this site has no power headroom for one more session
      }
      if (policy_.power_cap > 0.0 &&
          running_peak_sum_ + path_session_peak_[p] > policy_.power_cap + 1e-9) {
        continue;  // the cross-site sum is capped too
      }
      const double phi = health_->phi(p);
      if (best == -1 || phi < best_phi) {  // strict <: lowest index wins ties
        best = p;
        best_phi = phi;
      }
    }
    if (best >= 0) return best;
  }
  return -1;
}

void Scheduler::release_capacity(const Tenant& t) {
  running_peak_sum_ -= path_session_peak_[t.path];
  path_running_peak_[t.path] -= path_session_peak_[t.path];
}

TickPool* Scheduler::tick_pool() const noexcept {
  if (pool_ == nullptr) return nullptr;
  if (running_.size() < kMinParallelTenants) return nullptr;
  // Without a collector every tenant shares base_config_.obs, and trace /
  // decision slots are single-writer — the sharded prepare and commit phases
  // would race on them. A collector gives each tenant its own slot, so the
  // gate opens.
  if (collector_ == nullptr && base_config_.obs != nullptr) return nullptr;
  // Both legs of a hedge race publish into their tenant's slot.
  if (races_ > 0) return nullptr;
  return pool_.get();
}

void Scheduler::try_dispatch() {
  while (!queue_.empty()) {
    Tenant& head = *queue_.front();
    if (can_dispatch(head)) {
      queue_.erase(queue_.begin());
      dispatch(head);
      continue;
    }
    // An interactive tenant blocked on capacity may evict background work:
    // the most recently dispatched scavenger is checkpointed and re-queued.
    if (head.out.sla_class == SlaClass::kInteractive) {
      Tenant* victim = nullptr;
      for (auto it = running_.rbegin(); it != running_.rend(); ++it) {
        if ((*it)->racing_for == nullptr && (*it)->out.sla_class == SlaClass::kScavenger) {
          victim = *it;
          break;
        }
      }
      if (victim != nullptr) {
        preempt(*victim);
        continue;  // re-check the head against the freed capacity
      }
    }
    break;
  }
}

void Scheduler::dispatch(Tenant& t) {
  // Placement IS migration: every dispatch (first leg, resume after an
  // abort, re-dispatch after a preemption) lands on the healthiest path with
  // power headroom. A journal taken on a different path than the one chosen
  // makes this leg a failover, never a plain retry — which is what keeps
  // `migrations <= attempts` an invariant rather than a hope. With one path
  // every journal was taken on it, so a schedule without alternates never
  // migrates.
  const int chosen = pick_path();
  if (chosen >= 0) {
    if (t.journal && t.journal->path_id != chosen) {
      ++t.out.migrations;
      ++report_.migrations;
      record(t, RecoveryAction::kMigrate, t.journal->taken_at,
             "resuming on " + policy_.paths.option(chosen).name + " (phi " +
                 std::to_string(health_->phi(chosen)) + ") instead of " +
                 policy_.paths.option(t.journal->path_id).name + " (phi " +
                 std::to_string(health_->phi(t.journal->path_id)) + ")");
    }
    t.path = chosen;
  }
  t.out.path = t.path;
  // A leg that refuses to start was attempted too.
  ++t.out.attempts;
  if (t.out.attempts == 1) t.out.started_at = sim_.now();
  if (auto bad = launch(t, t)) {
    const Seconds at = t.transfer_time();
    t.out.result = proto::RunResult{};
    t.out.result.error = *bad;
    fail(t, std::move(*bad), at);
    return;
  }
  if (t.journal) {
    record(t, RecoveryAction::kResume, t.journal->taken_at,
           "resuming from the checkpoint journal (" +
               std::to_string(t.journal->completed.size()) + " files landed)");
  }
  decide(t, obs::DecisionKind::kSchedulerDispatch, sim_.now(),
         "dispatch " + t.out.name + " (attempt " + std::to_string(t.out.attempts) + ")",
         std::to_string(running_.size()) + " running, peak bound " +
             std::to_string(running_peak_sum_) + " W");
  if (t.hedge_projection > 0.0) start_race(t);
}

std::optional<std::string> Scheduler::launch(Tenant& leg, const Tenant& t) {
  const TransferJob& job = t.spec.job;
  obs::DecisionLog* decisions = t.sinks != nullptr ? t.sinks->decisions : nullptr;
  const proto::Environment& env = path_envs_[leg.path];
  // Re-planning against the leg's path is what adapts a failed-over leg:
  // the tuner sees that path's BDP and buffer, not the primary's.
  OperatingPoint op = make_operating_point(
      env, job.dataset, t.ladder.policy, t.ladder.channels,
      job.sla_percent, job.energy_budget, reference_rate_, decisions);

  proto::SessionConfig config = base_config_;
  config.obs = t.sinks;
  config.path_id = leg.path;
  if (policy_.supervision.attempt_deadline > 0.0) {
    config.max_sim_time = policy_.supervision.attempt_deadline;
  }
  leg.session = std::make_unique<proto::TransferSession>(
      sim_, env, job.dataset, std::move(op.plan), config);
  leg.controller = std::move(op.controller);
  leg.session->set_fault_plan(faults_.for_path(leg.path));
  if (t.journal) {
    std::string err;
    if (!leg.session->resume_from(*t.journal, &err)) return "resume failed: " + err;
  }
  if (auto bad = leg.session->begin(leg.controller.get())) return bad;
  leg.attempt_started = sim_.now();
  leg.attempt_deadline = policy_.supervision.attempt_deadline;
  leg.state = Tenant::State::kRunning;
  running_.push_back(&leg);
  running_peak_sum_ += path_session_peak_[leg.path];
  path_running_peak_[leg.path] += path_session_peak_[leg.path];
  report_.peak_power_bound = std::max(report_.peak_power_bound, running_peak_sum_);
  report_.max_concurrent_observed =
      std::max(report_.max_concurrent_observed, static_cast<int>(running_.size()));
  return std::nullopt;
}

proto::RunResult Scheduler::stop(Tenant& leg, bool completed, Seconds end_raw) {
  proto::RunResult res = leg.session->finalize(completed, end_raw);
  leg.session.reset();
  leg.controller.reset();
  running_.erase(std::find(running_.begin(), running_.end(), &leg));
  release_capacity(leg);
  return res;
}

void Scheduler::start_race(Tenant& t) {
  const Seconds projected = std::exchange(t.hedge_projection, 0.0);
  // The second leg needs a slot and another path with power headroom;
  // without them the tenant runs one leg and the race never happened.
  if (static_cast<int>(running_.size()) >= policy_.max_concurrent) return;
  const int second = pick_path(t.path);
  if (second < 0) return;
  auto leg = std::make_unique<Tenant>();
  leg->racing_for = &t;
  leg->path = second;
  leg->sinks = t.sinks;
  leg->out.sla_class = t.out.sla_class;
  // It resumes from the journal the first leg just resumed from, so it
  // cannot refuse where that one started.
  if (launch(*leg, t)) return;
  t.leg = std::move(leg);
  ++races_;
  record(t, RecoveryAction::kHedge, t.journal->taken_at,
         "projected finish " + std::to_string(projected) + " s > deadline " +
             std::to_string(policy_.supervision.job_deadline) +
             " s; racing the tail on '" + policy_.paths.option(t.path).name +
             "' and '" + policy_.paths.option(second).name + "'");
}

void Scheduler::end_race(Tenant& t, Tenant& loser) {
  // Both legs resumed from t's journal, so what the cancelled one burned
  // since the fork is the race's double-spend.
  const proto::RunResult cancelled = stop(loser, false, sim_.now());
  t.out.hedge_energy += cancelled.end_system_energy - t.journal->end_system_energy;
  t.out.hedge_legs += 2;
  --races_;
}

void Scheduler::preempt(Tenant& t) {
  if (t.racing()) end_race(t, *t.leg);
  t.out.result = stop(t, false, sim_.now());
  t.journal = t.out.result.checkpoint;
  ++t.out.preemptions;
  ++report_.preemptions;
  record(t, RecoveryAction::kPreempt, t.transfer_time(),
         "checkpointed to free capacity for an interactive tenant (" +
             std::to_string(t.out.result.goodput_bytes()) + " B landed)");
  enqueue(t);  // scavenger rank puts it behind all foreground work
}

void Scheduler::abort_attempt(Tenant& t, Seconds end_raw) {
  // A race's legs share one deadline: the second is cancelled, and the
  // first aborts like any leg.
  if (t.racing()) end_race(t, *t.leg);
  t.out.result = stop(t, false, end_raw);
  t.journal = t.out.result.checkpoint;
  const Seconds at = t.transfer_time();
  ++t.deadline_aborts;
  ++watchdog_aborts_;
  if (flightrec_ != nullptr) {
    flightrec_->trigger("watchdog abort: " + t.out.name, sim_.now());
  }
  // A watchdog abort is evidence against the path the leg ran on; the
  // demerit decays with sim-time, so one flap does not exile a site.
  health_->observe_fault(t.path, sim_.now());
  record(t, RecoveryAction::kDeadlineAbort, at,
         "attempt hit its " + std::to_string(t.attempt_deadline) +
             " s deadline; checkpoint taken");
  if (t.deadline_aborts >= policy_.supervision.max_attempts) {
    fail(t, "retry budget (" + std::to_string(policy_.supervision.max_attempts) +
                " attempts) spent", at);
    return;
  }
  if (!t.journal) {
    fail(t, "aborted run left no checkpoint", at);
    return;
  }
  if (const auto step = t.ladder.on_abort(policy_.supervision)) {
    record(t, *step, at,
           *step == RecoveryAction::kReduceChannels
               ? "stepping down to " + std::to_string(t.ladder.channels) + " channels"
               : "channel floor reached; falling back to the minimum-energy plan");
  }
  // A finish projected past the job deadline races the tail on a second
  // path at the next dispatch (when there is one), once per tenant.
  const SupervisorPolicy& sup = policy_.supervision;
  if (sup.hedge && sup.job_deadline > 0.0 && t.out.hedge_legs == 0) {
    const proto::Dataset& ds = t.spec.job.dataset;
    const Bytes remaining = ds.total_bytes() - t.journal->delivered_bytes(ds);
    const BitsPerSecond recent = t.out.result.avg_goodput();
    const Seconds projected = recent > 0.0
                                  ? t.journal->taken_at + to_bits(remaining) / recent
                                  : std::numeric_limits<Seconds>::infinity();
    if (projected > sup.job_deadline) t.hedge_projection = projected;
  }
  // An aborted job keeps its place at the head of its class: it has already
  // burned site time and should finish before fresh arrivals of equal rank.
  t.state = Tenant::State::kQueued;
  const int rank = class_rank(t.out.sla_class);
  auto it = queue_.begin();
  while (it != queue_.end() && class_rank((*it)->out.sla_class) < rank) ++it;
  queue_.insert(it, &t);
}

void Scheduler::complete(Tenant& leg) {
  Tenant& t = leg.racing_for != nullptr ? *leg.racing_for : leg;
  Seconds end_raw = sim_.now();
  if (leg.attempt_deadline > 0.0) {
    // Same clamp as the single-session run loop: ticker float error must not
    // push a finish past the watchdog deadline it was admitted under.
    end_raw = std::min(end_raw, leg.attempt_started + leg.attempt_deadline);
  }
  // The first leg to finish wins a race. finished_ is in dispatch order, so
  // when both finish in one tick the first-dispatched leg gets here first.
  const bool won_race = t.racing();
  const Joules spent = t.out.hedge_energy;
  if (won_race) end_race(t, &leg == &t ? *t.leg : t);
  t.out.result = stop(leg, true, end_raw);
  t.path = leg.path;
  t.out.path = leg.path;
  t.out.finished_at = sim_.now();
  if (won_race) {
    const Seconds at = t.out.result.duration;
    decide(t, obs::DecisionKind::kHedgeWin, at,
           "hedge won by '" + policy_.paths.option(leg.path).name + "'",
           "loser cancelled at " + std::to_string(at) + " s after " +
               std::to_string(t.out.hedge_energy - spent) + " J double-spend");
  }
  ++report_.completed;
  if (t.spec.job.policy == JobPolicy::kSla) {
    const BitsPerSecond target = reference_rate_ * t.spec.job.sla_percent / 100.0;
    t.out.sla_met = meets_sla(t.out.result.avg_throughput(), target);
  } else {
    t.out.sla_met = true;
  }
  decide(t, obs::DecisionKind::kSchedulerDone, sim_.now(), "done " + t.out.name,
         "completed in " + std::to_string(t.out.attempts) + " attempt(s), " +
             std::to_string(t.out.preemptions) + " preemption(s)");
  retire(t);
}

void Scheduler::fail(Tenant& t, std::string reason, Seconds at) {
  t.out.failed = true;
  t.out.sla_met = false;
  t.out.finished_at = sim_.now();
  ++report_.failed;
  record(t, RecoveryAction::kGiveUp, at, reason);
  decide(t, obs::DecisionKind::kSchedulerDone, sim_.now(), "failed " + t.out.name,
         std::move(reason));
  retire(t);
}

void Scheduler::retire(Tenant& t) {
  t.state = Tenant::State::kDone;
  if (t.out.finished_at <= 0.0) t.out.finished_at = sim_.now();
  --unfinished_;
  if (t.sinks != nullptr && t.sinks->metrics != nullptr) {
    auto& m = *t.sinks->metrics;
    const std::string prefix = "tenant." + t.out.name + ".";
    m.counter(prefix + "attempts").add(static_cast<std::uint64_t>(t.out.attempts));
    if (t.out.preemptions > 0) {
      m.counter(prefix + "preemptions")
          .add(static_cast<std::uint64_t>(t.out.preemptions));
    }
    if (t.out.deferrals > 0) {
      m.counter(prefix + "deferrals").add(static_cast<std::uint64_t>(t.out.deferrals));
    }
    if (t.out.migrations > 0) {
      m.counter(prefix + "migrations").add(static_cast<std::uint64_t>(t.out.migrations));
    }
    const char* fate = t.out.rejected ? "rejected" : t.out.failed ? "failed" : "completed";
    m.counter(prefix + fate).add(1);
  }
}

bool Scheduler::master_tick() {
  if (sim_.now() > policy_.horizon) return false;

  // Watchdogs first, mirroring the single-session guard: a leg whose local
  // clock has passed its deadline is aborted before this tick's work. The
  // re-queued tenants are placed by the dispatch at the end of the tick, so
  // a new leg's first slice is its local (0, tick], as in the engine's own
  // run; begun here, it would advance once at local time 0 and move bytes
  // its reported duration never counts.
  if (policy_.supervision.attempt_deadline > 0.0 && !running_.empty()) {
    overdue_.clear();
    for (Tenant* t : running_) {
      // A second leg shares its tenant's deadline; the tenant's abort ends it.
      if (t->racing_for == nullptr && sim_.now() - t->attempt_started > t->attempt_deadline) {
        overdue_.push_back(t);
      }
    }
    for (Tenant* t : overdue_) {
      abort_attempt(*t, t->attempt_started + t->attempt_deadline);
    }
  }

  if (!running_.empty()) {
    const int n = static_cast<int>(path_envs_.size());
    const std::size_t n_run = running_.size();
    TickPool* pool = tick_pool();
    PhaseTimer timer(profiler_);

    // Phase 1 (parallel-safe): per-session prepare + demand collection.
    // Each tenant touches only its own session state, its own single-writer
    // obs slot, its staging record and its chunk's demand buffer, so
    // sharding cannot reorder anything a tenant observes — the rounds below
    // read the staging in admission order regardless of which worker
    // produced it.
    tick_stage_.resize(n_run);
    tick_result_.resize(n_run);
    const std::size_t chunks = (n_run + kTenantsPerChunk - 1) / kTenantsPerChunk;
    if (chunk_demands_.size() < chunks) chunk_demands_.resize(chunks);
    run_phase(pool, n_run, [&](std::size_t i) {
      const Tenant& t = *running_[i];
      proto::TransferSession& s = *t.session;
      s.tick_prepare();
      s.collect_link_demands();
      std::vector<net::Demand>& buffer = chunk_demands_[i / kTenantsPerChunk];
      if (i % kTenantsPerChunk == 0) buffer.clear();
      const auto demands = s.link_demands();
      TickStage& stage = tick_stage_[i];
      stage.path = t.path;
      stage.streams = s.aggregate_streams();
      stage.demand = s.aggregate_demand();
      stage.path_factor = s.path_factor();
      stage.offset = static_cast<std::uint32_t>(buffer.size());
      stage.count = static_cast<std::uint32_t>(demands.size());
      buffer.insert(buffer.end(), demands.begin(), demands.end());
    });
    timer.lap(obs::TickProfiler::kPrepare);

    // Phase 2 (serial): each path is its own link, so each gets one joint
    // fair-share round over the tenants placed there, submitted in admission
    // order — the order, not the worker schedule, is what the allocation
    // depends on. -1 marks paths with no running tenants this tick: they
    // carry no goodput signal (an idle path is not an unhealthy path) and
    // are skipped by the health feed below. Each path has its own arbiter,
    // so every round's slices stay valid for the apply phase.
    path_capacity_.assign(n, -1.0);
    for (int p = 0; p < n; ++p) {
      // Site-level brownouts scale the path for everyone on it, and a
      // per-session fault brownout is a property of the path too — the most
      // degraded view wins. With one tenant and no site events this is
      // exactly the session's own `bandwidth * path_factor`.
      bool placed = false;
      double min_path = 1.0;
      double agg_demand = 0.0;
      int agg_streams = 0;
      for (std::size_t i = 0; i < n_run; ++i) {
        const TickStage& stage = tick_stage_[i];
        if (stage.path != p) continue;
        min_path = placed ? std::min(min_path, stage.path_factor) : stage.path_factor;
        placed = true;
        agg_demand += stage.demand;
        agg_streams += stage.streams;
      }
      if (!placed) continue;
      const BitsPerSecond capacity =
          path_envs_[p].path.available_bandwidth() * path_link_factor_[p] * min_path;
      path_capacity_[p] = capacity;

      // The round is over the flows in admission order; how they are cut
      // into submissions does not change it. Consecutive tenants of one
      // chunk have adjacent demands in its buffer, so each run of them on
      // this path is submitted as one range.
      PathRound& round = path_round_[p];
      round.arbiter.begin_round(capacity);
      std::uint32_t slices = 0;
      for (std::size_t i = 0; i < n_run;) {
        if (tick_stage_[i].path != p) {
          ++i;
          continue;
        }
        const std::size_t chunk = i / kTenantsPerChunk;
        const std::size_t chunk_end = std::min(n_run, (chunk + 1) * kTenantsPerChunk);
        const std::uint32_t first = tick_stage_[i].offset;
        std::size_t flows = 0;
        for (; i < chunk_end && tick_stage_[i].path == p; ++i) {
          TickStage& stage = tick_stage_[i];
          stage.slice = slices;
          stage.offset -= first;
          flows += stage.count;
        }
        round.arbiter.submit({chunk_demands_[chunk].data() + first, flows});
        ++slices;
      }
      round.arbiter.allocate();

      round.eff = net::congestion_efficiency(path_envs_[p].congestion, agg_demand,
                                             capacity, agg_streams);
      double total_avg = 0.0;
      for (std::uint32_t i = 0; i < slices; ++i) {
        for (const BitsPerSecond a : round.arbiter.slice(i)) total_avg += a * round.eff;
      }
      round.burst_cap = total_avg > 0.0 ? std::max(1.0, capacity / total_avg) : 1.0;
    }
    timer.lap(obs::TickProfiler::kArbiter);

    // Phase 3 (parallel-safe): rate application from the tenant's slice,
    // read in place, then byte/energy compute and the session's commit —
    // obs_tick, the sample-window close and its controller's on_sample.
    // All of it is per-session math and per-session state (the jitter RNG
    // included) plus the tenant's obs slot; the scheduler sets no
    // checkpoint sink, and registry metrics commute. Compute writes no obs
    // sink, so a slot shared by every tenant receives the commits in
    // admission order whether each follows its own compute or all follow
    // every compute. Power, bytes and the "more to do" flag are staged for
    // the serial commit.
    const auto compute = [&](std::size_t i) {
      const TickStage& stage = tick_stage_[i];
      const PathRound& round = path_round_[stage.path];
      proto::TransferSession& s = *running_[i]->session;
      const auto slice = round.arbiter.slice(stage.slice);
      s.apply_link_allocation(slice.subspan(stage.offset, stage.count), round.eff,
                              round.burst_cap);
      s.advance_compute();
    };
    const auto commit = [&](std::size_t i) {
      proto::TransferSession& s = *running_[i]->session;
      TickResult& result = tick_result_[i];
      result.more = s.advance_commit();
      result.power = s.last_tick_power();
      result.bytes = s.last_tick_bytes();
    };
    // Sharded, both run in one phase: a worker's share of the sessions
    // stays in its core's cache, and the tick saves a pool hand-off. On one
    // thread, one sweep over every session through both outgrows the
    // cache that the next tick's prepare reads from, so they run as two
    // sweeps. On fleet_1k (eight pairs, 4-vCPU VM) fusing was 9 % faster
    // at four workers and splitting 10 % faster at one.
    if (pool != nullptr) {
      run_phase(pool, n_run, [&](std::size_t i) {
        compute(i);
        commit(i);
      });
    } else {
      run_phase(nullptr, n_run, compute);
      run_phase(nullptr, n_run, commit);
    }
    timer.lap(obs::TickProfiler::kApply);

    // Serial commit, admission order: the cross-tenant books — measured
    // power globally AND per site (kept in admission order so the
    // floating-point reductions are bitwise the sequential ones), the cap
    // checks, the health feed, gauges, telemetry, the flight recorder and
    // completion.
    finished_.clear();
    Watts measured = 0.0;
    path_measured_.assign(n, 0.0);
    path_bytes_.assign(n, 0.0);
    for (std::size_t i = 0; i < n_run; ++i) {
      const TickResult& result = tick_result_[i];
      const int p = tick_stage_[i].path;
      measured += result.power;
      path_measured_[p] += result.power;
      path_bytes_[p] += static_cast<double>(result.bytes);
      if (!result.more) finished_.push_back(running_[i]);
    }
    report_.peak_power = std::max(report_.peak_power, measured);
    const bool cap_exceeded =
        policy_.power_cap > 0.0 && measured > policy_.power_cap * (1.0 + 1e-9);
    if (cap_exceeded) ++report_.power_cap_violations;
    // With one path its books ARE the global books checked above; only
    // alternates have per-site sums of their own to hold under a cap.
    const int capped_sites = multipath() ? n : 0;
    const auto site_over_cap = [this](int p) {
      return path_cap_[p] > 0.0 && path_measured_[p] > path_cap_[p] * (1.0 + 1e-9);
    };
    for (int p = 0; p < capped_sites; ++p) {
      if (site_over_cap(p)) ++report_.power_cap_violations;
    }
    flight_note(measured);
    if (flightrec_ != nullptr) {
      if (cap_exceeded) {
        flightrec_->trigger("site power cap measured above bound", sim_.now());
      }
      for (int p = 0; p < capped_sites; ++p) {
        if (site_over_cap(p)) {
          flightrec_->trigger(
              "per-site power cap measured above bound: " + policy_.paths.option(p).name,
              sim_.now());
        }
      }
    }
    for (int p = 0; p < n; ++p) {
      if (path_capacity_[p] < 0.0) continue;  // no tenants placed here this tick
      // Scored against the path's *nominal* bandwidth, not the browned-out
      // arbitration capacity: a brownout must read as lost goodput, otherwise
      // a path delivering 10% of itself would look perfectly healthy.
      const double expected =
          path_envs_[p].path.available_bandwidth() * base_config_.tick / 8.0;
      const double frac = expected > 0.0 ? path_bytes_[p] / expected : 1.0;
      health_->observe_goodput(p, sim_.now(), std::min(1.0, frac));
    }
    if (collector_ != nullptr) publish_tick_gauges(measured);
    if (sched_sinks_ != nullptr && sched_sinks_->trace != nullptr) {
      for (std::size_t p = 0; p < path_phi_track_.size(); ++p) {
        sched_sinks_->trace->counter(sim_.now(), path_phi_track_[p],
                                     health_->phi(static_cast<int>(p)));
      }
    }
    sample_telemetry(measured);
    for (Tenant* t : finished_) {
      if (t->session) complete(*t);  // else: a race leg cancelled this tick
    }
    timer.lap(obs::TickProfiler::kCommit);
  }

  try_dispatch();
  emit_sched_tracks();
  return unfinished_ > 0;
}

void Scheduler::publish_tick_gauges(Watts measured) {
  if (peak_power_gauge_ == nullptr) {
    peak_power_gauge_ = &collector_->metrics().gauge("scheduler.peak_power_w");
    if (multipath()) {
      for (const auto& option : policy_.paths.options()) {
        path_phi_gauge_.push_back(
            &collector_->metrics().gauge("scheduler.path." + option.name + ".phi"));
      }
    }
  }
  peak_power_gauge_->set_max(measured);
  for (std::size_t p = 0; p < path_phi_gauge_.size(); ++p) {
    path_phi_gauge_[p]->set_max(health_->phi(static_cast<int>(p)));
  }
}

void Scheduler::sample_telemetry(Watts measured) {
  if (telemetry_ == nullptr || !telemetry_->due(sim_.now())) return;
  // Runs in the serial commit section, before completions are retired, and
  // reads only deterministic sim-state — which is the whole determinism
  // argument for the eadt-telemetry-v1 export. Allocation-free: the scratch
  // sample's vectors are pre-sized by the hub.
  obs::TelemetrySample& s = telemetry_->scratch();
  s.running = static_cast<int>(running_.size());
  s.queued = static_cast<int>(queue_.size());
  s.deferred = deferred_;
  int channels = 0;
  for (const Tenant* t : running_) channels += t->session->open_channel_count();
  s.channels = channels;
  s.shed = static_cast<std::uint64_t>(report_.rejected);
  s.preempted = static_cast<std::uint64_t>(report_.preemptions);
  s.migrated = static_cast<std::uint64_t>(report_.migrations);
  s.completed = static_cast<std::uint64_t>(report_.completed);
  s.failed = static_cast<std::uint64_t>(report_.failed);
  s.power_w = measured;
  s.cap_w = policy_.power_cap;
  s.class_running.fill(0);
  s.class_burn.fill(0.0);
  std::array<double, obs::kTelemetryClasses> burn_sum{};
  std::array<int, obs::kTelemetryClasses> burn_n{};
  for (const Tenant* t : running_) {
    const auto c = static_cast<std::size_t>(class_rank(t->out.sla_class));
    ++s.class_running[c];
    if (t->attempt_deadline > 0.0) {
      burn_sum[c] += deadline_burn(t->attempt_started, sim_.now(), t->attempt_deadline);
      ++burn_n[c];
    }
  }
  for (std::size_t c = 0; c < obs::kTelemetryClasses; ++c) {
    if (burn_n[c] > 0) s.class_burn[c] = burn_sum[c] / burn_n[c];
  }
  const std::size_t sites = std::min(telemetry_->site_count(), path_measured_.size());
  for (std::size_t p = 0; p < sites; ++p) {
    s.site_power_w[p] = path_measured_[p];
    s.site_cap_w[p] = path_cap_[p];
    // Health is a comparison between alternates; a lone path reports none.
    s.site_phi[p] = multipath() ? health_->phi(static_cast<int>(p)) : 0.0;
  }
  telemetry_->record(sim_.now());
}

void Scheduler::flight_note(Watts measured) {
  if (flightrec_ == nullptr) return;
  obs::FlightTick ft;
  ft.t = sim_.now();
  ft.running = static_cast<int>(running_.size());
  ft.queued = static_cast<int>(queue_.size());
  ft.deferred = deferred_;
  ft.power_w = measured;
  ft.cap_w = policy_.power_cap;
  ft.watchdog_aborts = watchdog_aborts_;
  ft.cap_violations = static_cast<std::uint64_t>(report_.power_cap_violations);
  flightrec_->note(ft);
}

void Scheduler::emit_sched_tracks() {
  if (sched_sinks_ == nullptr || sched_sinks_->trace == nullptr ||
      sched_running_track_ == nullptr) {
    return;
  }
  // Change-gated: a 200k-tick fleet run emits a point only when the fleet
  // state moved, which keeps long traces bounded by events, not by ticks.
  const int running = static_cast<int>(running_.size());
  const int queued = static_cast<int>(queue_.size());
  const int shed = report_.rejected;
  if (running == last_track_running_ && queued == last_track_queued_ &&
      shed == last_track_shed_) {
    return;
  }
  last_track_running_ = running;
  last_track_queued_ = queued;
  last_track_shed_ = shed;
  sched_sinks_->trace->counter(sim_.now(), sched_running_track_, running);
  sched_sinks_->trace->counter(sim_.now(), sched_queued_track_, queued);
  sched_sinks_->trace->counter(sim_.now(), sched_shed_track_, shed);
}

SchedulerReport Scheduler::run(std::vector<SchedulerJob> jobs) {
  report_ = {};
  // The tick pool lives for the whole schedule: workers park between phases
  // (and between ticks), so a dispatch is a notify, not a thread spawn.
  if (policy_.jobs > 1) pool_ = std::make_unique<TickPool>(policy_.jobs);
  // The path table. A schedule without alternates has exactly one entry:
  // the testbed's own environment under the global cap (`path_power_caps`
  // describe alternates).
  path_envs_.clear();
  path_cap_.clear();
  if (multipath()) {
    const auto& caps = policy_.path_power_caps;
    for (int p = 0; p < policy_.paths.size(); ++p) {
      path_envs_.push_back(environment_for_path(testbed_.env, policy_.paths.option(p)));
      // A missing or zero entry falls back to the global cap.
      path_cap_.push_back(p < static_cast<int>(caps.size()) && caps[p] > 0.0
                              ? caps[p]
                              : policy_.power_cap);
    }
  } else {
    path_envs_.push_back(testbed_.env);
    path_cap_.push_back(policy_.power_cap);
  }
  // path_envs_ is stable from here on: sessions hold references into it.
  const int n = static_cast<int>(path_envs_.size());
  path_session_peak_.clear();
  for (const auto& env : path_envs_) {
    path_session_peak_.push_back(session_peak_power_bound(env));
  }
  path_running_peak_.assign(n, 0.0);
  path_link_factor_.assign(n, 1.0);
  path_round_.assign(n, PathRound{});
  health_ = std::make_unique<HealthMonitor>(n);
  peak_power_gauge_ = nullptr;
  path_phi_gauge_.clear();
  tenants_.clear();
  tenants_.reserve(jobs.size());
  unfinished_ = static_cast<int>(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    auto t = std::make_unique<Tenant>();
    t->index = i;
    t->spec = std::move(jobs[i]);
    t->ladder = LadderState{t->spec.job.policy, std::max(1, t->spec.job.max_channels)};
    t->out.name = t->spec.job.name;
    t->out.policy = t->spec.job.policy;
    t->out.sla_class = sla_class_of(t->spec.job.policy);
    t->out.submitted_at = t->spec.submit_at;
    if (collector_ != nullptr) {
      t->sinks = collector_->slot(slot_base_ + i, t->spec.job.name);
    } else {
      t->sinks = base_config_.obs;
    }
    tenants_.push_back(std::move(t));
  }
  if (collector_ != nullptr) {
    // Scheduler-level slot, placed after the per-tenant slots. Fleet-level
    // counter tracks (running/queued/shed) land here so a trace is readable
    // without per-tenant drilldown; schedules with alternates add per-path
    // phi tracks showing the health the placement decisions actually saw.
    sched_sinks_ = collector_->slot(slot_base_ + tenants_.size(), "scheduler");
    path_phi_track_.clear();
    if (sched_sinks_->trace != nullptr) {
      sched_running_track_ = sched_sinks_->trace->intern("sched.running");
      sched_queued_track_ = sched_sinks_->trace->intern("sched.queued");
      sched_shed_track_ = sched_sinks_->trace->intern("sched.shed");
      if (multipath()) {
        for (const auto& option : policy_.paths.options()) {
          path_phi_track_.push_back(
              sched_sinks_->trace->intern("path." + option.name + ".phi"));
        }
      }
    }
  }

  for (const auto& t : tenants_) {
    Tenant* tp = t.get();
    sim_.schedule_at(tp->spec.submit_at, [this, tp] { on_submit(*tp); });
  }
  for (const auto& b : policy_.link_brownouts) {
    // A brownout hits its target path only (path -1 hits every site; an
    // index past the table hits none). Onset is also a health demerit — the
    // monitor should suspect a browning path before a tick's goodput
    // shortfall confirms it.
    sim_.schedule_at(b.start, [this, b] {
      const double f = std::max(0.0, b.capacity_factor);
      for (int p = 0; p < static_cast<int>(path_link_factor_.size()); ++p) {
        if (b.path != -1 && b.path != p) continue;
        path_link_factor_[p] = f;
        health_->observe_fault(p, sim_.now());
      }
    });
    sim_.schedule_at(b.start + b.duration, [this, b] {
      for (int p = 0; p < static_cast<int>(path_link_factor_.size()); ++p) {
        if (b.path != -1 && b.path != p) continue;
        path_link_factor_[p] = 1.0;
      }
    });
  }
  sim_.add_ticker(base_config_.tick, [this] { return master_tick(); });
  sim_.run_until(policy_.horizon + base_config_.tick);
  if (profiler_ != nullptr && pool_ != nullptr) {
    // Occupancy is wall-clock diagnostics: how many tenant chunks each
    // worker ran, read once before the workers join.
    for (int w = 0; w < pool_->jobs(); ++w) {
      profiler_->record_worker_ops(static_cast<std::size_t>(w), pool_->worker_ops(w));
    }
  }
  pool_.reset();  // join the workers before the single-threaded close-out

  // The horizon: anything still in flight is closed out honestly.
  for (const auto& tp : tenants_) {
    Tenant& t = *tp;
    switch (t.state) {
      case Tenant::State::kRunning: {
        if (t.racing()) end_race(t, *t.leg);
        t.out.result = stop(t, false, sim_.now());
        t.journal = t.out.result.checkpoint;
        fail(t, "still running at the scheduler horizon", t.transfer_time());
        break;
      }
      case Tenant::State::kDeferred:
        --deferred_;
        [[fallthrough]];
      case Tenant::State::kQueued:
        fail(t, "horizon reached while waiting for capacity", t.transfer_time());
        break;
      case Tenant::State::kPending:
      case Tenant::State::kDone:
        break;
    }
  }
  queue_.clear();

  for (const auto& tp : tenants_) {
    Tenant& t = *tp;
    if (t.state != Tenant::State::kDone) continue;  // never submitted
    report_.total_bytes += t.out.result.bytes;
    report_.total_energy += t.out.result.end_system_energy;
    if (tariff_ && t.out.attempts > 0 && t.out.finished_at > t.out.started_at) {
      t.out.cost_usd = tariff_->cost(t.out.result.end_system_energy,
                                     tariff_start_ + t.out.started_at,
                                     t.out.finished_at - t.out.started_at);
      report_.total_cost_usd += t.out.cost_usd;
    }
    report_.makespan = std::max(report_.makespan, t.out.finished_at);
    SlaClassStats& cls = t.out.sla_class == SlaClass::kInteractive ? report_.interactive
                         : t.out.sla_class == SlaClass::kStandard  ? report_.standard
                                                                   : report_.scavenger;
    ++cls.submitted;
    if (t.out.rejected) {
      ++cls.rejected;
    } else if (t.out.failed) {
      ++cls.failed;
    } else {
      ++cls.completed;
      cls.sla_met += t.out.sla_met ? 1 : 0;
    }
    report_.jobs.push_back(std::move(t.out));
  }
  if (flightrec_ != nullptr && !report_.accounting_consistent()) {
    flightrec_->trigger("accounting invariant violated", sim_.now());
  }
  return report_;
}

}  // namespace eadt::exp
