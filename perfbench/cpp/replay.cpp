#include "replay.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "exp/supervisor.hpp"
#include "net/fair_share.hpp"
#include "net/tcp_model.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace eadt;

struct Live {
  std::unique_ptr<proto::TransferSession> session;
  std::unique_ptr<proto::Controller> controller;
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

double elapsed_s(std::int64_t from, std::int64_t to) {
  return static_cast<double>(to - from) * 1e-9;
}

}  // namespace

ReplayStats replay_rounds(const ReplaySpec& spec, Tracer* tracer) {
  ReplayStats st;
  sim::Simulation sim;
  std::vector<Live> running;  // admission order, like Scheduler::running_
  std::size_t unfinished = spec.jobs.size();

  net::LinkArbiter arbiter;
  net::FairShareScratch ref_scratch;
  net::WaterfillSolver solver;
  std::vector<net::Demand> demands;
  std::vector<net::DemandGroup> groups;
  std::vector<BitsPerSecond> ref_alloc;
  std::vector<BitsPerSecond> dist_alloc;
  std::vector<char> done;

  const auto admit = [&](std::size_t i) {
    const ReplayJob& job = spec.jobs[i];
    exp::OperatingPoint op = exp::make_operating_point(
        *spec.env, job.dataset, job.policy, job.max_channels, job.sla_percent, 0.0,
        spec.reference_rate, nullptr);
    Live live;
    live.session = std::make_unique<proto::TransferSession>(
        sim, *spec.env, job.dataset, std::move(op.plan), spec.config);
    live.controller = std::move(op.controller);
    live.session->set_fault_plan(spec.faults);
    if (auto bad = live.session->begin(live.controller.get())) {
      throw std::runtime_error("replay: session refused to start: " + *bad);
    }
    running.push_back(std::move(live));
  };

  const auto arbiter_round = [&](BitsPerSecond capacity) {
    arbiter.begin_round(capacity);
    for (const Live& l : running) {
      arbiter.submit_groups(l.session->cached_link_demand_groups());
    }
    arbiter.allocate();
  };

  const auto tick = [&]() -> bool {
    if (running.empty()) return unfinished > 0;
    const std::size_t n = running.size();

    const std::int64_t t_prepare = Tracer::now_ns();
    for (const Live& l : running) l.session->tick_prepare();
    const std::int64_t t_collect = Tracer::now_ns();
    for (const Live& l : running) {
      l.session->collect_link_demands();
      (void)l.session->link_demand_groups();
    }
    const std::int64_t t_collected = Tracer::now_ns();

    double min_path = running.front().session->path_factor();
    demands.clear();
    groups.clear();
    for (const Live& l : running) {
      min_path = std::min(min_path, l.session->path_factor());
      const auto d = l.session->link_demands();
      demands.insert(demands.end(), d.begin(), d.end());
      const auto g = l.session->cached_link_demand_groups();
      groups.insert(groups.end(), g.begin(), g.end());
    }
    const BitsPerSecond capacity = spec.env->path.available_bandwidth() * min_path;

    // The gate: the round must agree bitwise with the reference loop before
    // any of its solvers is timed.
    arbiter_round(capacity);
    (void)net::fair_share_reference_into(capacity, demands, ref_alloc, ref_scratch);
    (void)solver.solve_dist(capacity, groups, dist_alloc);
    std::size_t k = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (const BitsPerSecond a : arbiter.slice(i)) {
        if (!same_bits(a, ref_alloc[k++])) {
          throw std::runtime_error("replay: LinkArbiter round differs from the reference");
        }
      }
    }
    k = 0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      for (std::uint64_t c = 0; c < groups[g].count; ++c) {
        if (!same_bits(dist_alloc[g], ref_alloc[k++])) {
          throw std::runtime_error("replay: solve_dist round differs from the reference");
        }
      }
    }

    const std::int64_t t_allocate = Tracer::now_ns();
    arbiter_round(capacity);
    const std::int64_t t_reference = Tracer::now_ns();
    (void)net::fair_share_reference_into(capacity, demands, ref_alloc, ref_scratch);
    const std::int64_t t_dist = Tracer::now_ns();
    (void)solver.solve_dist(capacity, groups, dist_alloc);
    const std::int64_t t_solved = Tracer::now_ns();
    st.solver_rounds += solver.stats().rounds;
    st.solver_exact_rounds += solver.stats().exact_rounds;

    // The scheduler's shared congestion model over the joint round.
    double agg_demand = 0.0;
    int agg_streams = 0;
    for (const Live& l : running) {
      agg_demand += l.session->aggregate_demand();
      agg_streams += l.session->aggregate_streams();
    }
    const double eff =
        net::congestion_efficiency(spec.env->congestion, agg_demand, capacity, agg_streams);
    double total_avg = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (const BitsPerSecond a : arbiter.slice(i)) total_avg += a * eff;
    }
    const double burst_cap = total_avg > 0.0 ? std::max(1.0, capacity / total_avg) : 1.0;

    const std::int64_t t_apply = Tracer::now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      running[i].session->apply_link_allocation(arbiter.slice(i), eff, burst_cap);
    }
    const std::int64_t t_compute = Tracer::now_ns();
    for (const Live& l : running) l.session->advance_compute();
    const std::int64_t t_commit = Tracer::now_ns();
    done.assign(n, 0);
    bool any_done = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (!running[i].session->advance_commit()) done[i] = any_done = true;
    }
    if (any_done) {
      std::size_t keep = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (done[i]) {
          (void)running[i].session->finalize(true, sim.now());
          --unfinished;
        } else {
          running[keep++] = std::move(running[i]);
        }
      }
      running.resize(keep);
    }
    const std::int64_t t_end = Tracer::now_ns();

    ++st.rounds;
    st.session_ticks += n;
    st.flows += demands.size();
    st.groups += groups.size();
    if (demands.size() >= net::kWaterfillThreshold) ++st.waterfill_rounds;
    st.prepare_s += elapsed_s(t_prepare, t_collect);
    st.collect_s += elapsed_s(t_collect, t_collected);
    st.allocate_s += elapsed_s(t_allocate, t_reference);
    st.reference_s += elapsed_s(t_reference, t_dist);
    st.solve_dist_s += elapsed_s(t_dist, t_solved);
    st.apply_s += elapsed_s(t_apply, t_compute);
    st.compute_s += elapsed_s(t_compute, t_commit);
    st.commit_s += elapsed_s(t_commit, t_end);
    if (tracer != nullptr) {
      tracer->add("proto/prepare", t_prepare, t_collect);
      tracer->add("proto/collect", t_collect, t_collected);
      tracer->add("net/allocate", t_allocate, t_reference);
      tracer->add("net/reference", t_reference, t_dist);
      tracer->add("net/solve_dist", t_dist, t_solved);
      tracer->add("proto/apply", t_apply, t_compute);
      tracer->add("proto/compute", t_compute, t_commit);
      tracer->add("proto/commit", t_commit, t_end);
    }
    return unfinished > 0;
  };

  for (std::size_t i = 0; i < spec.jobs.size(); ++i) {
    sim.schedule_at(spec.jobs[i].submit_at, [&admit, i] { admit(i); });
  }
  sim.add_ticker(spec.config.tick, tick);
  sim.run_until(spec.horizon + spec.config.tick);
  for (const Live& l : running) (void)l.session->finalize(false, sim.now());
  st.sim = sim.counters();
  return st;
}

void put_replay_metrics(const ReplayStats& st, std::map<std::string, double>& m) {
  const auto per = [](double total, std::uint64_t n) {
    return n > 0 ? total / static_cast<double>(n) : 0.0;
  };
  m["sim.events_fired"] = static_cast<double>(st.sim.fired);
  m["sim.ticks"] = static_cast<double>(st.sim.ticks);
  m["sim.cancelled"] = static_cast<double>(st.sim.cancelled);
  m["sim.peak_queue"] = static_cast<double>(st.sim.peak_queue);
  m["net.rounds"] = static_cast<double>(st.rounds);
  m["net.flows_per_round"] = per(static_cast<double>(st.flows), st.rounds);
  m["net.groups_per_round"] = per(static_cast<double>(st.groups), st.rounds);
  m["net.collapse_ratio"] = per(static_cast<double>(st.flows), st.groups);
  m["net.waterfill_round_share"] = per(static_cast<double>(st.waterfill_rounds), st.rounds);
  m["net.allocate_us"] = per(st.allocate_s * 1e6, st.rounds);
  m["net.reference_us"] = per(st.reference_s * 1e6, st.rounds);
  m["net.solve_dist_us"] = per(st.solve_dist_s * 1e6, st.rounds);
  m["net.exact_round_share"] =
      per(static_cast<double>(st.solver_exact_rounds), st.solver_rounds);
  m["proto.session_ticks"] = static_cast<double>(st.session_ticks);
  m["proto.prepare_ns"] = per(st.prepare_s * 1e9, st.session_ticks);
  m["proto.collect_ns"] = per(st.collect_s * 1e9, st.session_ticks);
  m["proto.apply_ns"] = per(st.apply_s * 1e9, st.session_ticks);
  m["proto.compute_ns"] = per(st.compute_s * 1e9, st.session_ticks);
  m["proto.commit_ns"] = per(st.commit_s * 1e9, st.session_ticks);
}

}  // namespace perfbench
