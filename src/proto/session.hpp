// The GridFTP-like transfer engine on top of the fluid-flow simulator.
//
// A TransferSession executes a TransferPlan over an Environment:
//   * each data channel is one process on a source DTN and one on a
//     destination DTN, moving one file at a time over `parallelism` TCP
//     streams with `pipelining` control commands in flight;
//   * every tick the engine computes per-channel rate caps (stream windows,
//     CPU share, disk share), a weighted max-min fair share of the bottleneck,
//     and a congestion efficiency, then advances file queues, resolving
//     per-file control gaps and slow-start penalties inside the tick;
//   * every tick it converts per-server load into utilization -> power ->
//     energy (Section 2.2 models) and packet counts -> network device energy
//     (Section 4, Eq. 5);
//   * every sampling window (5 s, like the paper) it reports SampleStats to
//     an optional Controller which may retarget the concurrency level — this
//     is the hook HTEE's search phase and SLAEE's SLA tracking use.
//
// Determinism: the engine is driven purely by the Simulation clock; repeated
// runs of the same (environment, dataset, plan) are bit-identical.
#pragma once

#include <array>
#include <cmath>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/fair_share.hpp"
#include "proto/checkpoint.hpp"
#include "proto/environment.hpp"
#include "proto/faults.hpp"
#include "proto/plan.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace eadt::obs {
struct ObsSinks;
}  // namespace eadt::obs

namespace eadt::proto {

struct RunResult {
  Seconds duration = 0.0;
  Bytes bytes = 0;  ///< wire bytes moved (includes fault retransmissions)
  Joules end_system_energy = 0.0;
  Joules network_energy = 0.0;
  int final_concurrency = 0;
  bool completed = false;  ///< false if the max-sim-time guard tripped
  /// Non-empty when the run refused to start (malformed FaultPlan, bad
  /// resume); such a result has completed == false and zero bytes.
  std::string error;
  /// Present whenever the run ended incomplete: the journal entry a caller
  /// (e.g. exp::Scheduler's next leg) resumes from without losing landed
  /// bytes.
  std::optional<TransferCheckpoint> checkpoint;
  FaultStats faults;       ///< robustness accounting (all zero without faults)
  /// Event-engine perf counters for this run (deterministic: a replay of the
  /// same scenario reports the same counts — only wall time may differ).
  sim::SimCounters sim_counters;
  std::vector<SampleStats> samples;
  std::vector<ServerEnergy> source_servers;
  std::vector<ServerEnergy> destination_servers;

  /// Unique file bytes durably delivered; equals the dataset size on a
  /// completed run even when faults forced retransmissions.
  [[nodiscard]] Bytes goodput_bytes() const {
    return bytes >= faults.wasted_bytes ? bytes - faults.wasted_bytes : 0;
  }
  [[nodiscard]] BitsPerSecond avg_throughput() const {
    return duration > 0.0 ? to_bits(bytes) / duration : 0.0;
  }
  /// Application-visible rate: wasted (re-sent) bytes excluded.
  [[nodiscard]] BitsPerSecond avg_goodput() const {
    return duration > 0.0 ? to_bits(goodput_bytes()) / duration : 0.0;
  }
  /// The paper's throughput/energy efficiency ratio. Guarded so degenerate
  /// runs (zero duration, zero energy during a total outage) report 0
  /// instead of NaN/inf.
  [[nodiscard]] double throughput_per_joule() const {
    if (duration <= 0.0 || end_system_energy <= 0.0) return 0.0;
    const double r = avg_throughput() / end_system_energy;
    return std::isfinite(r) ? r : 0.0;
  }
};

struct SessionConfig {
  Seconds tick = 0.1;
  Seconds sample_interval = 5.0;
  Seconds max_sim_time = 7.0 * 24 * 3600;  ///< hard stop; flags !completed
  /// Which net::PathSet entry this session's environment was built from.
  /// Pure identity: stamped into every checkpoint so a resumed leg knows
  /// which route the capturing leg ran on. 0 = primary / single-path.
  int path_id = 0;
  /// Observability sinks (metrics / spans / decisions — MODEL.md §12). Null
  /// (the default) keeps the engine byte-identical and allocation-free: the
  /// only cost is one pointer compare at each guarded site. The sinks must
  /// outlive run(). Borrowed, so the config stays copyable — SweepRunner and
  /// Scheduler copy configs freely and every copy publishes into the same
  /// sinks.
  obs::ObsSinks* obs = nullptr;
};

class TransferSession {
 public:
  TransferSession(const Environment& env, const Dataset& dataset, TransferPlan plan,
                  SessionConfig config = {});
  /// Multi-tenant form: run on an external, possibly shared Simulation
  /// instead of an owned one. The session records the clock at begin() as its
  /// epoch, so a tenant admitted mid-timeline still reports attempt-local
  /// times. The simulation must outlive the session. With a fresh simulation
  /// this is behaviourally identical to the owning constructor.
  TransferSession(sim::Simulation& sim, const Environment& env, const Dataset& dataset,
                  TransferPlan plan, SessionConfig config = {});
  /// Cancels the plan events still pending: a shared simulation outlives it.
  ~TransferSession();
  TransferSession(const TransferSession&) = delete;  // plan events hold `this`
  TransferSession& operator=(const TransferSession&) = delete;

  /// Install a failure workload; call before run(). A default-constructed
  /// (inactive) plan — also the default — leaves the engine byte-identical
  /// to the failure-free behaviour.
  void set_fault_plan(FaultPlan plan);

  /// Run to completion (or the time guard). Controller may be null.
  [[nodiscard]] RunResult run(Controller* controller = nullptr);

  // --- shared-simulation phase API (multi-tenant; MODEL.md §13) ----------
  // exp::Scheduler drives several sessions on one Simulation by calling
  // these phases each master tick; link arbitration is lifted out of the
  // session so all tenants contend in one net::LinkArbiter round. run() is
  // exactly begin + {tick_prepare, allocate_rates, advance_compute,
  // advance_commit} per tick + finalize, so the single-session path shares
  // every line of this code.

  /// Start the session on its simulation: validates the fault plan, records
  /// the current clock as the session epoch, opens observability, builds the
  /// initial channel set, and schedules the fault plan's events. Returns an
  /// error message instead when the run refuses to start.
  [[nodiscard]] std::optional<std::string> begin(Controller* controller = nullptr);
  /// Tick phase 1: revive backed-off channels, feed idle ones, rebalance.
  void tick_prepare();
  /// Tick phase 2a: compute this session's per-channel demand caps (CPU,
  /// windows, disk pools, duty cycles) and publish them as link demands.
  /// Rebuilds the channel layout first if it changed since the last call.
  void collect_link_demands();
  [[nodiscard]] std::span<const net::Demand> link_demands() const noexcept;
  /// The same demands as link_demands(), run-length collapsed into
  /// (cap, weight, count) groups: adjacent channels with bitwise-identical
  /// caps and stream counts become one group. Expanding the groups in order
  /// reproduces link_demands() exactly, so submitting either to a
  /// net::LinkArbiter round yields the same joint allocation bit for bit —
  /// but a fleet of same-shape tenants costs the arbiter per-group.
  [[nodiscard]] std::span<const net::DemandGroup> link_demand_groups();
  /// The groups built by the last link_demand_groups() call, without
  /// recomputing them. No product path calls either getter (exp::Scheduler
  /// submits link_demands() per flow); perfbench's fleet replay does.
  [[nodiscard]] std::span<const net::DemandGroup> cached_link_demand_groups()
      const noexcept {
    return scratch_.link_groups;
  }
  /// Sum of this session's demand caps / parallel streams, inputs to the
  /// shared congestion-efficiency model.
  [[nodiscard]] double aggregate_demand() const noexcept { return agg_demand_; }
  [[nodiscard]] int aggregate_streams() const noexcept { return agg_streams_; }
  /// Tick phase 2b: turn an arbitration result (this session's slice of the
  /// joint allocation, plus the round's net::round_factors) into per-channel
  /// rates. `alloc` must align with link_demands().
  void apply_link_allocation(std::span<const BitsPerSecond> alloc, double eff,
                             double burst_cap);
  /// Tick phase 3a: move bytes through the channels and account this tick's
  /// energy. Phase 3b, advance_commit(), follows; a shared-simulation driver
  /// may run many sessions' compute, then their commits, sharded across
  /// workers (MODEL.md §16). Touches only this
  /// session's state (its channels, queues, ledgers and seeded RNG streams),
  /// never the shared Simulation, so disjoint sessions may run it
  /// concurrently with bit-identical results.
  void advance_compute();
  /// Tick phase 3b — observability, sampling windows and controller
  /// callbacks for the tick that advance_compute() just produced. Reads the
  /// shared Simulation's clock and writes this session, its controller and
  /// its obs sinks. Disjoint sessions may therefore commit concurrently when
  /// no two share a trace or decision log (exp::Scheduler's sharded commit,
  /// MODEL.md §16). Returns false once every queue is drained.
  [[nodiscard]] bool advance_commit();
  /// Close the books at raw simulation clock `end_raw` and build the result
  /// (abort checkpoint included when `completed` is false). The session is
  /// spent afterwards.
  [[nodiscard]] RunResult finalize(bool completed, Seconds end_raw);
  /// Current path brownout factor (1.0 outside any fault window). Under a
  /// shared link, a brownout seen by any tenant is a property of the path.
  [[nodiscard]] double path_factor() const noexcept { return path_factor_; }
  /// End-system power drawn over the last advanced tick.
  [[nodiscard]] Watts last_tick_power() const noexcept { return last_tick_power_; }
  /// Goodput bytes moved in the most recent tick (health-monitor feed).
  [[nodiscard]] Bytes last_tick_bytes() const noexcept { return last_tick_bytes_; }
  /// Data channels currently open. Fleet telemetry sums this across running
  /// tenants for the active-channel series.
  [[nodiscard]] int open_channel_count() const noexcept {
    return static_cast<int>(channels_.size());
  }

  // --- checkpoint / resume ----------------------------------------------

  /// Snapshot durable progress right now (also valid after run() returned, or
  /// before it started, or from a Controller's on_sample). The journal is
  /// keyed by file id, so it can seed a resume under a *different* plan over
  /// the same dataset. An aborted run carries one in RunResult::checkpoint.
  [[nodiscard]] TransferCheckpoint make_checkpoint() const;

  /// Continue an interrupted transfer: drop landed files from the queues,
  /// trim partially delivered files to their residual suffix, and restore the
  /// wire/energy/fault ledgers and RNG streams, so the resumed run reports
  /// cumulative totals and never re-pays delivered bytes. Call after
  /// set_fault_plan() (which reseeds the RNGs this restores) and before
  /// run(). Fails (false, *error filled) on a dataset-fingerprint mismatch, a
  /// server-count mismatch, or a journal no session could have written: a
  /// negative count (quarantined channels, fault counters), a negative or
  /// non-finite time or energy (taken_at, the energy and downtime ledgers,
  /// per-server joules and active time), or wire bytes that are not the
  /// delivered bytes plus the wasted ones. The session is unusable after a
  /// failed resume.
  [[nodiscard]] bool resume_from(const TransferCheckpoint& checkpoint,
                                 std::string* error = nullptr);

  // --- Controller API (valid during run(), from on_sample) ---------------

  /// Retarget the total number of open data channels; takes effect next tick.
  void set_total_concurrency(int n);
  /// MinE/SLAEE rule: cap the Large chunk's channels (nullopt removes the
  /// cap — SLAEE's reArrangeChannels).
  void set_large_chunk_cap(std::optional<int> cap);
  [[nodiscard]] Seconds now() const noexcept;
  [[nodiscard]] Bytes bytes_remaining() const noexcept;
  /// The observability sinks this session publishes into (null when off).
  /// Controllers use this to emit probe spans / decisions into the same
  /// buffers as the session's own telemetry.
  [[nodiscard]] obs::ObsSinks* observation() const noexcept { return config_.obs; }

 private:
  TransferSession(sim::Simulation* external, const Environment& env,
                  const Dataset& dataset, TransferPlan plan, SessionConfig config);

  struct QueueEntry {
    std::uint32_t file_id = 0;
    Bytes remaining = 0;
    Bytes size = 0;  ///< full file size (for whole-file retransmission)
  };
  // Ints and bools are grouped so the struct packs: a fleet of sessions
  // walks these every tick, and 1,000 of them already outgrow the cache.
  struct Channel {
    int chunk = -1;
    int parallelism = 1;
    int pipelining = 1;
    int failures = 0;  ///< consecutive faults on this slot (reset on completion)
    /// Trace track this channel's lease span is open on (-1 = none).
    int obs_lane = -1;
    bool cold = true;  ///< next file pays a full slow-start ramp
    bool busy = false;
    // --- failure state (inert without a fault plan) ---------------------
    bool down = false;      ///< connection lost; waiting out backoff
    bool stranded = false;  ///< down because a side has no live server
    std::size_t server[2] = {0, 0};  ///< indexed like sides_
    QueueEntry work{};
    Seconds overhead_left = 0.0;
    BitsPerSecond rate = 0.0;
    Bytes moved_this_tick = 0;
    Seconds down_since = 0.0;
    Seconds down_until = 0.0;
    /// Pre-duty rate cap (TCP windows, CPU shares, per-stream storage on
    /// both ends) under the current layout; valid while the channel is up
    /// and layout_dirty_ is clear.
    BitsPerSecond base_cap = 0.0;
    /// Per-file cost that does not depend on the file: server-side cost
    /// plus the control-channel gap at this channel's pipelining.
    Seconds fixed_overhead = 0.0;
  };
  static_assert(sizeof(Channel) <= 120, "Channel grew past its cache budget");

  /// Per-tick workspace for allocate_rates(). Same lifetime as the session,
  /// so every vector keeps its capacity between ticks and the steady-state
  /// rate pipeline performs zero heap allocations (MODEL.md §11; pinned by
  /// the alloc-guard test). Scratch only — never carries state across ticks.
  struct RateScratch {
    std::vector<double> caps, duty;
    std::vector<BitsPerSecond> pool_caps;       ///< one disk pool at a time
    std::vector<std::size_t> pool_index;
    std::vector<net::Demand> link_demands;      ///< the shared-link round
    std::vector<net::DemandGroup> link_groups;  ///< collapsed view of the above
    std::vector<BitsPerSecond> link_alloc;
    net::FairShareScratch fair_share;
    // rebalance() workspace: a dry queue triggers a rebalance every tick, so
    // the channel-allocation round must be as allocation-free as the rates.
    std::vector<int> desired, busy_count, capacity, have;
    std::vector<std::size_t> eligible, free_slots, to_close;
  };

  void rebalance();
  void open_channel(int chunk);
  void close_channel(std::size_t idx);      // requeues any in-flight remainder
  void assign_channel(Channel& ch, int chunk);
  /// Returns scratch_.desired (stable until the next call).
  [[nodiscard]] const std::vector<int>& desired_allocation();
  [[nodiscard]] bool chunk_live(int chunk) const;
  /// Non-transfer time around one file on this channel (server-side per-file
  /// cost, control-channel gap, congestion-window ramp).
  [[nodiscard]] Seconds per_file_overhead(const Channel& ch, Bytes size,
                                          bool cold) const;
  /// net::slow_start_penalty(env_.path, size, warm), bit for bit, without its
  /// log2 where the session constants below already fix the answer.
  [[nodiscard]] Seconds slow_start(Bytes size, double warm) const;
  bool pop_next_file(Channel& ch);          // false if the queue is empty
  void advance_channels(Seconds dt);
  /// Recount each side's per-server live processes and threads and every
  /// live channel's base_cap, then clear layout_dirty_.
  void rebuild_layout();
  /// Single-session tick phase 2: collect demands, run the link fair-share
  /// round locally, apply. The shared-simulation path replaces only the
  /// middle (the arbitration) — the collect/apply halves are the same code.
  void allocate_rates();
  /// Returns the end-system energy accrued this tick.
  Joules account_energy(Seconds dt);
  [[nodiscard]] bool finished() const;
  bool tick();                               // one dt step; false when done

  // --- failure-recovery machinery ---------------------------------------
  /// Schedule the plan's events, shifted from attempt-local time by the epoch.
  void arm_faults();
  /// Poisson arrivals: each kills a random live channel and draws the next gap.
  void schedule_next_stochastic_drop();
  void fault_drop_channel(int index);  ///< `index` as in ChannelDropEvent
  void fault_server_state(std::size_t side, std::size_t server, bool up);
  void fault_path_factor(double factor);  ///< 1.0 = nominal capacity
  /// Quarantine shrinks the channel pool; never below one.
  [[nodiscard]] int effective_concurrency() const {
    return std::max(1, target_concurrency_ - quarantined_);
  }
  [[nodiscard]] bool server_up(std::size_t side, std::size_t server) const;
  /// First live server (packed) / next live server round-robin (spread);
  /// nullopt when the whole side is down.
  [[nodiscard]] std::optional<std::size_t> pick_server(std::size_t side);
  /// Return a fault-interrupted in-flight file to its queue (resume offset
  /// with restart markers, full retransmission otherwise).
  void requeue_inflight(Channel& ch);
  /// Exponential backoff with seeded jitter for the n-th consecutive failure.
  [[nodiscard]] Seconds backoff_delay(int failures);
  void charge_waste(Bytes lost);
  void revive_channels();

  // --- observability ------------------------------------------------------
  // Every obs_* call is a no-op unless run() found sinks in config_.obs and
  // built an ObsState; the steady-state tick cost without sinks is a single
  // null compare (pinned, like the rate pipeline, by the alloc-guard test).
  /// This session's view of the clock: raw simulation time minus the epoch
  /// recorded at begin() (zero when the session owns its simulation, so the
  /// arithmetic is exact and the single-session path is byte-identical).
  [[nodiscard]] Seconds local_now() const noexcept { return sim_.now() - start_time_; }
  /// Absolute transfer time: resumed legs continue the prior legs' clock.
  [[nodiscard]] Seconds abs_now() const noexcept { return time_offset_ + local_now(); }
  void obs_begin_run();
  void obs_tick(Joules tick_energy, Seconds dt);
  void obs_sample(const SampleStats& s);
  void obs_lease_begin(Channel& ch);
  void obs_lease_end(Channel& ch, Seconds at);
  void obs_end_run(Seconds local_end, const RunResult& res);

  const Environment& env_;
  TransferPlan plan_;
  SessionConfig config_;
  std::vector<std::deque<QueueEntry>> queues_;  // per chunk
  std::vector<Bytes> chunk_remaining_;
  std::vector<Channel> channels_;
  int target_concurrency_ = 0;
  std::optional<int> large_cap_;

  /// One end of the transfer, per server: sides_[0] is the source, [1] the
  /// destination, as in Channel::server. Every loop over both runs source first.
  struct Side {
    const Endpoint* endpoint = nullptr;
    std::vector<ServerEnergy> energy;
    std::vector<char> up;             ///< 0 while an outage holds the server
    std::vector<Seconds> down_since;  ///< raw clock the outage began
    std::vector<int> procs, threads;  ///< the layout's live processes / threads
    std::size_t rr = 0;               ///< round-robin placement cursor
  };
  std::array<Side, 2> sides_;

  /// Owned unless the external-simulation constructor was used; declared
  /// before the reference so initialization order is safe.
  std::unique_ptr<sim::Simulation> owned_sim_;
  sim::Simulation& sim_;
  /// Raw simulation clock at begin(): the epoch of this session's local
  /// timeline (always 0.0 for an owned simulation).
  Seconds start_time_ = 0.0;
  RateScratch scratch_;
  // The channel layout: what the rate and energy pipeline derives from
  // which channels exist, which are up, where they run and with how many
  // streams. Every write to one of those sets layout_dirty_ (assign_channel,
  // close_channel, fault_drop_channel, a server outage, a revival), and the
  // next collect_link_demands() rebuilds it into Side::procs and
  // Side::threads and each channel's base_cap (MODEL.md §3). Faults fire
  // between ticks, so one tick's collect, apply and energy see one layout.
  bool layout_dirty_ = true;
  // Per-session constants of the rate and energy pipeline: the environment
  // is fixed for the session's life, so these are computed once at
  // construction instead of every tick (MODEL.md §4, §6).
  /// Files of at least this size all ramp to the same window target.
  Bytes ramp_target_ = 0;
  /// slow_start_penalty of such a file on a cold channel (warm fraction 0).
  Seconds full_ramp_ = 0.0;
  /// Eq. 5 energy of one MTU-sized packet across the route's device chain.
  Joules route_packet_energy_ = 0.0;
  // Aggregates of the last collect_link_demands() pass, inputs to the
  // (possibly shared) congestion model.
  double agg_demand_ = 0.0;
  int agg_streams_ = 0;
  Watts last_tick_power_ = 0.0;
  Bytes last_tick_bytes_ = 0;
  /// Energy accrued by the last advance_compute(), handed to the matching
  /// advance_commit() (obs + sampling read it there).
  Joules pending_tick_energy_ = 0.0;
  struct ObsState;
  std::unique_ptr<ObsState> obs_;  ///< built by run() iff sinks are attached
  Rng jitter_rng_{1};  // reseeded from env.jitter_seed in the constructor
  Controller* controller_ = nullptr;
  // --- checkpoint / resume state -----------------------------------------
  std::uint64_t dataset_fingerprint_ = 0;
  /// Absolute transfer time already consumed by the legs this session resumed
  /// from; added to every reported time (samples, checkpoints, duration).
  Seconds time_offset_ = 0.0;
  Bytes total_bytes_ = 0;
  Bytes bytes_moved_ = 0;  ///< wire bytes (retransmissions included)
  Joules network_energy_ = 0.0;
  Joules end_system_total_ = 0.0;  ///< running total, for waste attribution
  // sampling window accumulators
  Seconds window_start_ = 0.0;
  Bytes window_bytes_ = 0;
  Bytes window_wasted_ = 0;
  Joules window_energy_ = 0.0;
  std::vector<SampleStats> samples_;
  // fault state
  FaultPlan faults_;
  FaultStats fault_stats_;
  // Reseeded by set_fault_plan; resume_from restores all but the arrivals.
  Rng victim_rng_{1}, backoff_rng_{1}, checksum_rng_{1}, arrival_rng_{1};
  std::vector<sim::EventId> fault_events_;  ///< arm_faults()'s one-shot events
  sim::EventId next_drop_;                  ///< the stochastic chain's next arrival
  double path_factor_ = 1.0;
  int quarantined_ = 0;
};

}  // namespace eadt::proto
