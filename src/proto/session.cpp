#include "proto/session.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "net/fair_share.hpp"
#include "obs/obs.hpp"
#include "power/device.hpp"
#include "util/rng.hpp"

namespace eadt::proto {
namespace {

bool size_desc(const std::pair<Bytes, std::uint32_t>& a,
               const std::pair<Bytes, std::uint32_t>& b) {
  return a.first != b.first ? a.first > b.first : a.second < b.second;
}

}  // namespace

/// Per-run observability state: metric handles resolved once at run start
/// (so the tick-path publishes lock-free and allocation-free), plus the
/// trace bookkeeping for span lifetimes. Exists only while sinks are
/// attached — a plain session never constructs one.
struct TransferSession::ObsState {
  // Metric handles; null when no metrics sink is attached.
  obs::Counter* ticks = nullptr;
  obs::Counter* wire_bytes = nullptr;
  obs::Counter* goodput_bytes = nullptr;
  obs::Counter* retries = nullptr;
  obs::Counter* brownouts = nullptr;
  obs::Histogram* tick_goodput = nullptr;
  obs::Histogram* tick_power = nullptr;
  std::vector<obs::Counter*> chunk_bytes;  // per chunk, named by size class
  // Ledger baselines: a resumed leg restores cumulative totals, so run-level
  // metrics publish this leg's delta, not the whole transfer again.
  Bytes wire_at_start = 0;
  Bytes wasted_at_start = 0;
  std::int64_t retries_at_start = 0;
  // Trace bookkeeping.
  std::vector<const char*> lease_names;  // per chunk, interned once
  std::vector<char> chunk_open;          // chunk span currently open
  std::vector<char> chunk_busy;          // per-tick scratch
  std::vector<char> lane_used;           // channel-lease track allocator
  std::vector<double> chunk_energy;      // per-chunk energy share, this leg
  bool transfer_span_open = false;
  // Per-server power attribution, per side: counter-track names (interned
  // once) and the joule ledger as of the previous sample, so each sample
  // publishes the window's average draw per server rather than the lifetime
  // total.
  std::vector<const char*> power_names[2];
  std::vector<double> joules_prev[2];
};

TransferSession::~TransferSession() {
  // Cancelling a fired or already cancelled event is a no-op, so this is
  // exactly "whatever of the plan is still pending, take it off the queue".
  for (const auto& id : fault_events_) sim_.cancel(id);
  sim_.cancel(next_drop_);
}

TransferSession::TransferSession(const Environment& env, const Dataset& dataset,
                                 TransferPlan plan, SessionConfig config)
    : TransferSession(nullptr, env, dataset, std::move(plan), config) {}

TransferSession::TransferSession(sim::Simulation& sim, const Environment& env,
                                 const Dataset& dataset, TransferPlan plan,
                                 SessionConfig config)
    : TransferSession(&sim, env, dataset, std::move(plan), config) {}

TransferSession::TransferSession(sim::Simulation* external, const Environment& env,
                                 const Dataset& dataset, TransferPlan plan,
                                 SessionConfig config)
    : env_(env), plan_(std::move(plan)), config_(config),
      owned_sim_(external != nullptr ? nullptr : std::make_unique<sim::Simulation>()),
      sim_(external != nullptr ? *external : *owned_sim_),
      ramp_target_(std::max<Bytes>(env.path.bdp(), net::kInitialWindow)),
      full_ramp_(net::slow_start_penalty(env.path, ramp_target_, 0.0)),
      route_packet_energy_(power::route_packet_energy(env.route, env.path.mtu)),
      jitter_rng_(env.jitter_seed),
      dataset_fingerprint_(proto::dataset_fingerprint(dataset)) {
  queues_.resize(plan_.chunks.size());
  chunk_remaining_.assign(plan_.chunks.size(), 0);
  for (std::size_t c = 0; c < plan_.chunks.size(); ++c) {
    std::vector<std::pair<Bytes, std::uint32_t>> order;
    order.reserve(plan_.chunks[c].file_ids.size());
    for (std::uint32_t id : plan_.chunks[c].file_ids) {
      order.emplace_back(dataset.files[id].size, id);
    }
    if (plan_.chunks[c].cls == SizeClass::kLarge) {
      // Largest-first: the bulk files that bound the makespan start first,
      // so no straggler begins near the end of the transfer.
      std::sort(order.begin(), order.end(), size_desc);
    } else {
      // Listing order is size-uncorrelated in practice; a deterministic
      // shuffle keeps per-window throughput homogeneous instead of
      // clustering all the tiniest files at the chunk's tail.
      Rng shuffle_rng(0xC0FFEEULL ^ static_cast<std::uint64_t>(c));
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[shuffle_rng.uniform_int(0, i - 1)]);
      }
    }
    for (const auto& [size, id] : order) {
      queues_[c].push_back({id, size, size});
      chunk_remaining_[c] += size;
      total_bytes_ += size;
    }
  }
  if (plan_.sequential_chunks) {
    // One chunk at a time: the concurrency in flight is the largest per-chunk
    // allocation, not the sum.
    int widest = 1;
    for (const auto& p : plan_.params) widest = std::max(widest, p.channels);
    target_concurrency_ = widest;
  } else {
    target_concurrency_ = std::max(1, plan_.total_channels());
  }
  sides_[0].endpoint = &env_.source;
  sides_[1].endpoint = &env_.destination;
  for (Side& side : sides_) {
    for (const auto& s : side.endpoint->servers) side.energy.push_back({s.name, 0.0, 0.0});
    side.up.assign(side.energy.size(), 1);
    side.down_since.assign(side.energy.size(), 0.0);
  }
}

void TransferSession::set_fault_plan(FaultPlan plan) {
  faults_ = std::move(plan);
  const Rng root(faults_.seed);
  victim_rng_ = root.fork("victims");
  backoff_rng_ = root.fork("backoff");
  checksum_rng_ = root.fork("checksum");
  arrival_rng_ = root.fork("fault-arrivals");
}

TransferCheckpoint TransferSession::make_checkpoint() const {
  TransferCheckpoint c;
  // The run() guard can leave the event clock a fraction of a tick past the
  // deadline; clamp so resumed legs' time offsets chain consistently.
  c.taken_at = time_offset_ + std::min(local_now(), config_.max_sim_time);
  c.dataset_fingerprint = dataset_fingerprint_;
  c.path_id = config_.path_id;
  c.wire_bytes = bytes_moved_;
  c.end_system_energy = end_system_total_;
  c.network_energy = network_energy_;
  c.faults = fault_stats_;
  c.quarantined_channels = quarantined_;

  // Durable progress, keyed by file id: anything still queued or in flight is
  // pending; every other file of the plan has fully landed. The in-flight
  // prefix counts as delivered — the journal *is* the restart-marker store.
  std::unordered_map<std::uint32_t, const QueueEntry*> pending;
  for (const auto& q : queues_) {
    for (const auto& e : q) pending.emplace(e.file_id, &e);
  }
  for (const auto& ch : channels_) {
    if (ch.busy) pending.emplace(ch.work.file_id, &ch.work);
  }
  for (const auto& chunk : plan_.chunks) {
    for (const std::uint32_t id : chunk.file_ids) {
      const auto it = pending.find(id);
      if (it == pending.end()) {
        c.completed.push_back(id);
      } else if (it->second->remaining < it->second->size) {
        c.partial.push_back({id, it->second->size - it->second->remaining});
      }
    }
  }
  std::sort(c.completed.begin(), c.completed.end());
  std::sort(c.partial.begin(), c.partial.end(),
            [](const FileCursor& a, const FileCursor& b) { return a.file_id < b.file_id; });

  for (const auto& ch : channels_) c.channel_chunks.push_back(ch.chunk);
  c.source_servers = sides_[0].energy;
  c.destination_servers = sides_[1].energy;
  c.jitter_rng = jitter_rng_.state();
  c.victim_rng = victim_rng_.state();
  c.backoff_rng = backoff_rng_.state();
  c.checksum_rng = checksum_rng_.state();
  return c;
}

bool TransferSession::resume_from(const TransferCheckpoint& checkpoint,
                                  std::string* error) {
  const auto fail = [error](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
  };
  if (checkpoint.dataset_fingerprint != dataset_fingerprint_) {
    return fail("checkpoint was taken against a different dataset "
                "(fingerprint mismatch)");
  }
  const std::vector<ServerEnergy>* ledgers[2] = {&checkpoint.source_servers,
                                                 &checkpoint.destination_servers};
  for (std::size_t k = 0; k < 2; ++k) {
    if (ledgers[k]->size() != sides_[k].energy.size()) {
      return fail("checkpoint server ledgers do not match this environment");
    }
  }
  // A journal is input read back from disk: refuse one no session could have
  // written. Counts are never negative; times and energies are finite and
  // never negative.
  const FaultStats& f = checkpoint.faults;
  const std::pair<const char*, std::int64_t> counts[] = {
      {"quarantined", checkpoint.quarantined_channels},
      {"faults.retries", f.retries},
      {"faults.channel_drops", f.channel_drops},
      {"faults.checksum_failures", f.checksum_failures},
      {"faults.server_outages", f.server_outages},
      {"faults.quarantined_channels", f.quarantined_channels},
  };
  for (const auto& [name, n] : counts) {
    if (n < 0) return fail(std::string("checkpoint ") + name + " is negative");
  }
  const auto valid = [](double v) { return std::isfinite(v) && v >= 0.0; };
  const std::pair<const char*, double> amounts[] = {
      {"taken_at", checkpoint.taken_at},
      {"end_system_energy", checkpoint.end_system_energy},
      {"network_energy", checkpoint.network_energy},
      {"faults.wasted_joules", f.wasted_joules},
      {"faults.channel_downtime", f.channel_downtime},
      {"faults.server_downtime", f.server_downtime},
  };
  for (const auto& [name, v] : amounts) {
    if (!valid(v)) return fail(std::string("checkpoint ") + name + " is negative or not finite");
  }
  for (const auto* ledger : ledgers) {
    for (const auto& s : *ledger) {
      if (!valid(s.joules) || !valid(s.active_time)) {
        return fail("checkpoint ledger of server " + s.name +
                    " is negative or not finite");
      }
    }
  }

  std::unordered_set<std::uint32_t> completed(checkpoint.completed.begin(),
                                              checkpoint.completed.end());
  std::unordered_map<std::uint32_t, Bytes> delivered;
  for (const auto& cur : checkpoint.partial) delivered.emplace(cur.file_id, cur.delivered);

  // Rebuild the residual workload in place: landed files leave their queues,
  // partially delivered files shrink to their unlanded suffix. QueueEntry
  // keeps the full size, so per-file overheads and legacy full-retransmission
  // waste still see the real file.
  Bytes landed_total = 0;
  for (std::size_t c = 0; c < queues_.size(); ++c) {
    std::deque<QueueEntry> residual;
    for (auto& e : queues_[c]) {
      if (completed.count(e.file_id) != 0) {
        landed_total += e.remaining;
        chunk_remaining_[c] -= e.remaining;
        continue;
      }
      if (const auto it = delivered.find(e.file_id); it != delivered.end()) {
        const Bytes landed = std::min(it->second, e.remaining);
        landed_total += landed;
        e.remaining -= landed;
        chunk_remaining_[c] -= landed;
        if (e.remaining == 0) continue;  // cursor at EOF: effectively landed
      }
      residual.push_back(e);
    }
    queues_[c] = std::move(residual);
  }
  // Every byte a session moves either lands once or is charged as waste.
  const Bytes wasted = checkpoint.faults.wasted_bytes;
  if (checkpoint.wire_bytes < wasted || checkpoint.wire_bytes - wasted != landed_total) {
    return fail("checkpoint wire_bytes (" + std::to_string(checkpoint.wire_bytes) +
                ") is not its delivered (" + std::to_string(landed_total) +
                ") plus wasted (" + std::to_string(wasted) + ") bytes");
  }

  bytes_moved_ = checkpoint.wire_bytes;
  end_system_total_ = checkpoint.end_system_energy;
  network_energy_ = checkpoint.network_energy;
  fault_stats_ = checkpoint.faults;
  quarantined_ = checkpoint.quarantined_channels;
  for (std::size_t k = 0; k < 2; ++k) {
    for (std::size_t s = 0; s < sides_[k].energy.size(); ++s) {
      sides_[k].energy[s].joules = (*ledgers[k])[s].joules;
      sides_[k].energy[s].active_time = (*ledgers[k])[s].active_time;
    }
  }
  // Continue the stochastic history instead of replaying it (set_fault_plan
  // reseeded these; resume must run after it).
  jitter_rng_.restore(checkpoint.jitter_rng);
  victim_rng_.restore(checkpoint.victim_rng);
  backoff_rng_.restore(checkpoint.backoff_rng);
  checksum_rng_.restore(checkpoint.checksum_rng);
  time_offset_ = checkpoint.taken_at;
  return true;
}

Seconds TransferSession::now() const noexcept { return local_now(); }

Bytes TransferSession::bytes_remaining() const noexcept {
  // Clamped: wire bytes include fault retransmissions, so under heavy waste
  // (or after a resume restored a prior leg's wire total) moved can pass the
  // dataset size before the last unique byte lands.
  return bytes_moved_ >= total_bytes_ ? 0 : total_bytes_ - bytes_moved_;
}

void TransferSession::set_total_concurrency(int n) {
  target_concurrency_ = std::max(1, n);
}

void TransferSession::set_large_chunk_cap(std::optional<int> cap) { large_cap_ = cap; }

bool TransferSession::chunk_live(int chunk) const {
  if (chunk < 0 || static_cast<std::size_t>(chunk) >= queues_.size()) return false;
  if (!queues_[static_cast<std::size_t>(chunk)].empty()) return true;
  return std::any_of(channels_.begin(), channels_.end(), [chunk](const Channel& ch) {
    return ch.chunk == chunk && ch.busy;
  });
}

const std::vector<int>& TransferSession::desired_allocation() {
  const std::size_t n_chunks = plan_.chunks.size();
  auto& desired = scratch_.desired;
  desired.assign(n_chunks, 0);
  const int total = effective_concurrency();

  auto& busy_count = scratch_.busy_count;
  busy_count.assign(n_chunks, 0);
  for (const auto& ch : channels_) {
    if (ch.chunk >= 0 && ch.busy) ++busy_count[static_cast<std::size_t>(ch.chunk)];
  }
  // A chunk can never usefully hold more channels than work items.
  auto& capacity = scratch_.capacity;
  capacity.assign(n_chunks, 0);
  for (std::size_t i = 0; i < n_chunks; ++i) {
    capacity[i] = static_cast<int>(queues_[i].size()) + busy_count[i];
  }
  auto chunk_cap = [&](std::size_t i) {
    int cap = capacity[i];
    if (plan_.chunks[i].cls == SizeClass::kLarge && large_cap_) {
      cap = std::min(cap, std::max(0, *large_cap_));
    }
    return cap;
  };

  if (plan_.sequential_chunks) {
    // Divide-and-transfer (SC, GO): only the first unfinished chunk runs,
    // with *its own* planned channel count — per-chunk counts are not summed.
    for (std::size_t i = 0; i < n_chunks; ++i) {
      if (capacity[i] > 0) {
        desired[i] = std::min({total, plan_.params[i].channels, chunk_cap(i)});
        break;
      }
    }
    return desired;
  }

  if (plan_.steal == StealPolicy::kNone) {
    for (std::size_t i = 0; i < n_chunks; ++i) {
      desired[i] = std::min(plan_.params[i].channels, chunk_cap(i));
    }
    return desired;
  }

  int budget = total;
  auto& eligible = scratch_.eligible;
  eligible.clear();
  if (plan_.steal == StealPolicy::kNonLargeOnly) {
    // The Large chunk never grows past its planned channel count (MinE's
    // energy rule); everyone else shares the rest. If the Large chunk is all
    // that remains it still gets at least one channel — MinE "assigns a
    // single channel to the large chunk regardless of the channel count".
    bool any_nonlarge_live = false;
    for (std::size_t i = 0; i < n_chunks; ++i) {
      if (plan_.chunks[i].cls != SizeClass::kLarge && capacity[i] > 0) {
        any_nonlarge_live = true;
      }
    }
    for (std::size_t i = 0; i < n_chunks; ++i) {
      if (plan_.chunks[i].cls == SizeClass::kLarge && capacity[i] > 0) {
        int want = plan_.params[i].channels;
        if (!any_nonlarge_live) want = std::max(want, 1);
        desired[i] = std::min(want, chunk_cap(i));
        budget -= desired[i];
      }
    }
    for (std::size_t i = 0; i < n_chunks; ++i) {
      if (plan_.chunks[i].cls != SizeClass::kLarge && capacity[i] > 0) {
        eligible.push_back(i);
      }
    }
  } else {  // kAll
    for (std::size_t i = 0; i < n_chunks; ++i) {
      if (capacity[i] > 0) eligible.push_back(i);
    }
  }

  // D'Hondt divisor rounds: proportional to plan weights, capacity-capped,
  // deterministic. Falls back to remaining-bytes weights when the plan gave
  // every eligible chunk zero channels (can happen after floor() allocation).
  auto weight = [&](std::size_t i) {
    return static_cast<double>(plan_.params[i].channels);
  };
  auto bytes_weight = [&](std::size_t i) {
    return static_cast<double>(chunk_remaining_[i]) + 1.0;
  };
  while (budget > 0) {
    double best_q = -1.0;
    std::size_t best_i = n_chunks;
    bool use_bytes = true;
    for (std::size_t i : eligible) {
      if (desired[i] >= chunk_cap(i)) continue;
      if (weight(i) > 0.0) use_bytes = false;
    }
    for (std::size_t i : eligible) {
      if (desired[i] >= chunk_cap(i)) continue;
      const double w = use_bytes ? bytes_weight(i) : weight(i);
      const double q = w / static_cast<double>(desired[i] + 1);
      if (q > best_q) {
        best_q = q;
        best_i = i;
      }
    }
    if (best_i == n_chunks || best_q <= 0.0) break;
    ++desired[best_i];
    --budget;
  }
  return desired;
}

void TransferSession::assign_channel(Channel& ch, int chunk) {
  ch.chunk = chunk;
  ch.parallelism = std::max(1, plan_.params[static_cast<std::size_t>(chunk)].parallelism);
  ch.pipelining = std::max(1, plan_.params[static_cast<std::size_t>(chunk)].pipelining);
  ch.fixed_overhead = env_.per_file_cost + plan_.service_overhead_per_file +
                      net::control_gap_per_file(env_.path, ch.pipelining);
  ch.cold = true;  // a (re)assigned channel ramps its window from scratch
  layout_dirty_ = true;  // open_channel comes through here too
}

bool TransferSession::server_up(std::size_t side, std::size_t server) const {
  const auto& ups = sides_[side].up;
  return server < ups.size() ? ups[server] != 0 : true;
}

std::optional<std::size_t> TransferSession::pick_server(std::size_t side) {
  const std::size_t n = sides_[side].up.size();
  if (n == 0) return std::size_t{0};  // degenerate config; preserve old behaviour
  if (plan_.placement == Placement::kPacked) {
    for (std::size_t s = 0; s < n; ++s) {
      if (server_up(side, s)) return s;
    }
    return std::nullopt;
  }
  std::size_t& cursor = sides_[side].rr;
  for (std::size_t tries = 0; tries < n; ++tries) {
    const std::size_t s = cursor++ % n;
    if (server_up(side, s)) return s;
  }
  return std::nullopt;
}

void TransferSession::open_channel(int chunk) {
  Channel ch;
  assign_channel(ch, chunk);
  bool placed = true;
  for (std::size_t k = 0; k < 2; ++k) {
    const auto s = pick_server(k);
    ch.server[k] = s.value_or(0);
    placed = placed && s.has_value();
  }
  if (!placed) {
    // The whole side is down: the channel strands until a recovery event.
    ch.down = true;
    ch.stranded = true;
    ch.down_since = sim_.now();
  }
  channels_.push_back(ch);
  obs_lease_begin(channels_.back());
}

void TransferSession::close_channel(std::size_t idx) {
  Channel& ch = channels_[idx];
  obs_lease_end(ch, abs_now());
  if (ch.busy && ch.work.remaining > 0) {
    // chunk_remaining_ still includes these bytes (it is decremented only as
    // bytes move), so requeueing the remainder keeps accounting consistent.
    queues_[static_cast<std::size_t>(ch.chunk)].push_front(ch.work);
  }
  channels_.erase(channels_.begin() + static_cast<std::ptrdiff_t>(idx));
  layout_dirty_ = true;
}

void TransferSession::charge_waste(Bytes lost) {
  if (lost == 0) return;
  fault_stats_.wasted_bytes += lost;
  window_wasted_ += lost;
  // Attribute energy at the run's average end-system cost per wire byte so
  // far — the marginal cost of the bytes that now have to move again.
  if (bytes_moved_ > 0 && end_system_total_ > 0.0) {
    fault_stats_.wasted_joules += static_cast<double>(lost) * end_system_total_ /
                                  static_cast<double>(bytes_moved_);
  }
}

void TransferSession::requeue_inflight(Channel& ch) {
  if (ch.busy && ch.work.remaining > 0) {
    auto& q = queues_[static_cast<std::size_t>(ch.chunk)];
    if (faults_.retry.restart_markers) {
      // Restart markers: the retry resumes from the last byte offset, so the
      // already-moved prefix stays delivered and nothing is wasted.
      q.push_front(ch.work);
    } else {
      // Legacy whole-file retransmission: the moved prefix is lost.
      const Bytes lost = ch.work.size - ch.work.remaining;
      charge_waste(lost);
      chunk_remaining_[static_cast<std::size_t>(ch.chunk)] += lost;
      q.push_front({ch.work.file_id, ch.work.size, ch.work.size});
    }
    ++fault_stats_.retries;
  }
  ch.busy = false;
  ch.work = {};
  ch.overhead_left = 0.0;
  ch.rate = 0.0;
}

Seconds TransferSession::backoff_delay(int failures) {
  return retry_backoff_delay(faults_.retry, failures, backoff_rng_);
}

void TransferSession::arm_faults() {
  const auto at = [this](Seconds t, std::function<void()> fn) {
    fault_events_.push_back(sim_.schedule_at(start_time_ + t, std::move(fn)));
  };
  for (const auto& d : faults_.channel_drops) {
    at(d.time, [this, i = d.channel] { fault_drop_channel(i); });
  }
  for (const auto& o : faults_.outages) {
    const std::size_t side = o.source_side ? 0 : 1;
    at(o.start, [this, side, s = o.server] { fault_server_state(side, s, /*up=*/false); });
    at(o.start + o.duration,
       [this, side, s = o.server] { fault_server_state(side, s, /*up=*/true); });
  }
  for (const auto& b : faults_.brownouts) {
    at(b.start, [this, f = b.capacity_factor] { fault_path_factor(f); });
    at(b.start + b.duration, [this] { fault_path_factor(1.0); });
  }
  if (faults_.stochastic.channel_drop_rate > 0.0) schedule_next_stochastic_drop();
}

void TransferSession::schedule_next_stochastic_drop() {
  // Drops that find no live channel dissipate as no-ops.
  const double u = arrival_rng_.uniform01();
  const Seconds gap = -std::log(1.0 - u) / faults_.stochastic.channel_drop_rate;
  next_drop_ = sim_.schedule_after(gap, [this] {
    fault_drop_channel(-1);
    schedule_next_stochastic_drop();
  });
}

void TransferSession::fault_drop_channel(int index) {
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    if (!channels_[i].down) live.push_back(i);
  }
  if (live.empty()) return;  // nothing to kill; the drop dissipates
  const std::size_t victim =
      index >= 0 ? live[static_cast<std::size_t>(index) % live.size()]
                 : live[victim_rng_.uniform_int(0, live.size() - 1)];
  Channel& ch = channels_[victim];
  ++fault_stats_.channel_drops;
  layout_dirty_ = true;  // the victim goes down or is erased
  requeue_inflight(ch);
  ++ch.failures;
  if (ch.failures > faults_.retry.channel_retry_budget) {
    // Persistent failure: stop retrying this slot and run narrower. The
    // effective concurrency never drops below one, so a fresh slot replaces
    // the very last quarantined channel.
    ++quarantined_;
    ++fault_stats_.quarantined_channels;
    if (obs_ != nullptr && config_.obs->trace != nullptr && ch.obs_lane >= 0) {
      config_.obs->trace->instant(abs_now(), obs::kLaneTidBase + ch.obs_lane,
                                  "channel-quarantined", "fault",
                                  {"failures", static_cast<double>(ch.failures)});
    }
    obs_lease_end(ch, abs_now());
    channels_.erase(channels_.begin() + static_cast<std::ptrdiff_t>(victim));
    return;
  }
  ch.down = true;
  ch.cold = true;
  ch.down_since = sim_.now();
  ch.down_until = sim_.now() + backoff_delay(ch.failures);
  if (obs_ != nullptr && config_.obs->trace != nullptr && ch.obs_lane >= 0) {
    config_.obs->trace->instant(abs_now(), obs::kLaneTidBase + ch.obs_lane,
                                "channel-drop", "fault",
                                {"failures", static_cast<double>(ch.failures)},
                                {"backoff_s", ch.down_until - ch.down_since});
  }
}

void TransferSession::fault_server_state(std::size_t side, std::size_t server, bool up) {
  auto& ups = sides_[side].up;
  auto& since = sides_[side].down_since;
  if (server >= ups.size()) return;
  if (obs_ != nullptr && config_.obs->trace != nullptr && (ups[server] != 0) != up) {
    config_.obs->trace->instant(abs_now(), obs::kControlTid,
                                up ? "server-recovered" : "server-outage", "fault",
                                {"server", static_cast<double>(server)},
                                {"source_side", side == 0 ? 1.0 : 0.0});
  }
  if (!up) {
    if (ups[server] == 0) return;
    ups[server] = 0;
    since[server] = sim_.now();
    ++fault_stats_.server_outages;
    layout_dirty_ = true;
    // Displace every channel on the dead server. Server loss does not count
    // against the channel's own retry budget — the slot did nothing wrong.
    for (auto& ch : channels_) {
      if (ch.server[side] != server) continue;
      requeue_inflight(ch);
      if (!ch.down) ch.down_since = sim_.now();
      ch.down = true;
      ch.cold = true;
      const auto repl = pick_server(side);
      if (repl) {
        ch.server[side] = *repl;
        ch.down_until = std::max(ch.down_until, sim_.now() + backoff_delay(1));
      } else {
        ch.stranded = true;  // whole side down: wait for a recovery event
      }
    }
  } else {
    if (ups[server] != 0) return;
    ups[server] = 1;
    fault_stats_.server_downtime += sim_.now() - since[server];
    // Re-admit stranded channels whose dead side just recovered; one whose
    // other side is still all down stays stranded.
    for (auto& ch : channels_) {
      if (!ch.stranded) continue;
      bool placed = true;
      for (std::size_t k = 0; k < 2 && placed; ++k) {
        if (server_up(k, ch.server[k])) continue;
        const auto s = pick_server(k);
        placed = s.has_value();
        if (placed) ch.server[k] = *s;
      }
      if (!placed) continue;
      ch.stranded = false;
      ch.down_until = sim_.now() + backoff_delay(1);
    }
  }
}

void TransferSession::fault_path_factor(double factor) {
  path_factor_ = std::max(0.0, factor);
  if (obs_ == nullptr) return;
  const bool degraded = path_factor_ < 1.0;
  if (degraded && obs_->brownouts != nullptr) obs_->brownouts->add(1);
  if (auto* tb = config_.obs->trace) {
    tb->instant(abs_now(), obs::kControlTid, degraded ? "brownout" : "brownout-clear",
                "fault", {"path_capacity_factor", path_factor_});
    tb->counter(abs_now(), "path_capacity_factor", path_factor_);
  }
}

void TransferSession::revive_channels() {
  for (auto& ch : channels_) {
    if (ch.down && !ch.stranded && sim_.now() >= ch.down_until) {
      ch.down = false;
      layout_dirty_ = true;
      fault_stats_.channel_downtime += sim_.now() - ch.down_since;
    }
  }
}

void TransferSession::obs_begin_run() {
  obs::ObsSinks* sinks = config_.obs;
  if (sinks == nullptr || !sinks->any()) return;
  obs_ = std::make_unique<ObsState>();
  ObsState& st = *obs_;
  const std::size_t n_chunks = plan_.chunks.size();
  st.chunk_energy.assign(n_chunks, 0.0);
  if (sinks->metrics != nullptr) {
    auto& m = *sinks->metrics;
    m.counter("session.runs").add(1);
    st.ticks = &m.counter("session.ticks");
    st.wire_bytes = &m.counter("session.wire_bytes");
    st.goodput_bytes = &m.counter("session.goodput_bytes");
    st.retries = &m.counter("session.retries");
    st.brownouts = &m.counter("session.path_brownouts");
    st.tick_goodput = &m.histogram(
        "session.tick_goodput_mbps",
        {1.0, 10.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0});
    st.tick_power = &m.histogram("session.tick_power_w",
                                 {50.0, 100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0});
    st.chunk_bytes.reserve(n_chunks);
    for (std::size_t c = 0; c < n_chunks; ++c) {
      st.chunk_bytes.push_back(&m.counter(std::string("session.chunk_bytes.") +
                                          to_string(plan_.chunks[c].cls)));
    }
    st.wire_at_start = bytes_moved_;
    st.wasted_at_start = fault_stats_.wasted_bytes;
    st.retries_at_start = fault_stats_.retries;
  }
  if (sinks->trace != nullptr) {
    auto* tb = sinks->trace;
    tb->set_thread_name(obs::kControlTid, "algorithm / control");
    st.chunk_open.assign(n_chunks, 0);
    st.chunk_busy.assign(n_chunks, 0);
    st.lease_names.reserve(n_chunks);
    for (std::size_t c = 0; c < n_chunks; ++c) {
      const char* cls = to_string(plan_.chunks[c].cls);
      tb->set_thread_name(
          obs::kChunkTidBase + static_cast<int>(c),
          tb->intern("chunk " + std::to_string(c) + " (" + cls + ")"));
      st.lease_names.push_back(tb->intern(std::string("lease ") + cls));
    }
    for (std::size_t k = 0; k < 2; ++k) {
      const std::string prefix = k == 0 ? "power.src." : "power.dst.";
      st.power_names[k].reserve(sides_[k].energy.size());
      st.joules_prev[k].reserve(sides_[k].energy.size());
      for (const auto& s : sides_[k].energy) {
        st.power_names[k].push_back(tb->intern(prefix + s.name + "_w"));
        st.joules_prev[k].push_back(s.joules);  // resumed legs: delta from here
      }
    }
    tb->begin(abs_now(), obs::kControlTid, "transfer", "session",
              {"bytes", static_cast<double>(total_bytes_)},
              {"concurrency", static_cast<double>(target_concurrency_)});
    st.transfer_span_open = true;
  }
}

void TransferSession::obs_lease_begin(Channel& ch) {
  if (obs_ == nullptr || config_.obs->trace == nullptr || ch.chunk < 0) return;
  auto* tb = config_.obs->trace;
  ObsState& st = *obs_;
  // Lowest free lane: concurrent leases never share a track, and a closed
  // lane is recycled by the next open, keeping the track count bounded by
  // the peak concurrency rather than the channel-open count.
  std::size_t lane = 0;
  while (lane < st.lane_used.size() && st.lane_used[lane] != 0) ++lane;
  if (lane == st.lane_used.size()) {
    st.lane_used.push_back(1);
    tb->set_thread_name(obs::kLaneTidBase + static_cast<int>(lane),
                        tb->intern("channel lane " + std::to_string(lane)));
  } else {
    st.lane_used[lane] = 1;
  }
  ch.obs_lane = static_cast<int>(lane);
  tb->begin(abs_now(), obs::kLaneTidBase + ch.obs_lane,
            st.lease_names[static_cast<std::size_t>(ch.chunk)], "channel",
            {"chunk", static_cast<double>(ch.chunk)},
            {"parallelism", static_cast<double>(ch.parallelism)});
}

void TransferSession::obs_lease_end(Channel& ch, Seconds at) {
  if (obs_ == nullptr || config_.obs->trace == nullptr || ch.obs_lane < 0) return;
  config_.obs->trace->end(at, obs::kLaneTidBase + ch.obs_lane);
  obs_->lane_used[static_cast<std::size_t>(ch.obs_lane)] = 0;
  ch.obs_lane = -1;
}

void TransferSession::obs_tick(Joules tick_energy, Seconds dt) {
  ObsState& st = *obs_;
  Bytes moved = 0;
  std::fill(st.chunk_busy.begin(), st.chunk_busy.end(), 0);
  for (const auto& ch : channels_) {
    moved += ch.moved_this_tick;
    if (ch.chunk < 0) continue;
    const auto c = static_cast<std::size_t>(ch.chunk);
    if (ch.moved_this_tick > 0 && st.ticks != nullptr) {
      st.chunk_bytes[c]->add(ch.moved_this_tick);
    }
    if (c < st.chunk_busy.size() && ch.busy && !ch.down) st.chunk_busy[c] = 1;
  }
  if (moved > 0 && tick_energy > 0.0) {
    // Attribute this tick's end-system energy to chunks by byte share — the
    // per-chunk energy split the paper's per-class analysis needs.
    for (const auto& ch : channels_) {
      if (ch.chunk >= 0 && ch.moved_this_tick > 0) {
        st.chunk_energy[static_cast<std::size_t>(ch.chunk)] +=
            tick_energy * static_cast<double>(ch.moved_this_tick) /
            static_cast<double>(moved);
      }
    }
  }
  if (st.ticks != nullptr) {
    st.ticks->add(1);
    st.tick_goodput->observe(to_mbps(to_bits(moved) / dt));
    st.tick_power->observe(tick_energy / dt);
  }
  if (auto* tb = config_.obs->trace) {
    const Seconds t = abs_now();
    for (std::size_t c = 0; c < st.chunk_open.size(); ++c) {
      const int tid = obs::kChunkTidBase + static_cast<int>(c);
      if (st.chunk_open[c] == 0 && st.chunk_busy[c] != 0) {
        // The span opens at the start of the slice that first moved bytes.
        tb->begin(t - dt, tid, "chunk-active", "chunk",
                  {"remaining_bytes", static_cast<double>(chunk_remaining_[c])});
        st.chunk_open[c] = 1;
      } else if (st.chunk_open[c] != 0 && !chunk_live(static_cast<int>(c))) {
        tb->end(t, tid);
        st.chunk_open[c] = 0;
      }
    }
  }
}

void TransferSession::obs_sample(const SampleStats& s) {
  if (obs_ == nullptr || config_.obs->trace == nullptr) return;
  auto* tb = config_.obs->trace;
  ObsState& st = *obs_;
  const Seconds d = s.duration();
  tb->counter(s.window_end, "goodput_mbps", d > 0.0 ? to_mbps(s.throughput()) : 0.0);
  tb->counter(s.window_end, "power_w", d > 0.0 ? s.end_system_energy / d : 0.0);
  tb->counter(s.window_end, "active_channels", static_cast<double>(s.active_channels));
  tb->counter(s.window_end, "down_channels", static_cast<double>(s.down_channels));
  // Per-server attribution: one counter track per DTN, the window's average
  // draw from that server's joule ledger. The session aggregate above is the
  // sum of these tracks (plus nothing else), so a capacity question — which
  // server carries the watts when channels pack vs spread — reads straight
  // off the trace.
  for (std::size_t k = 0; k < 2; ++k) {
    for (std::size_t i = 0; i < st.power_names[k].size(); ++i) {
      const double joules = sides_[k].energy[i].joules;
      const double delta = joules - st.joules_prev[k][i];
      st.joules_prev[k][i] = joules;
      tb->counter(s.window_end, st.power_names[k][i], d > 0.0 ? delta / d : 0.0);
    }
  }
}

void TransferSession::obs_end_run(Seconds local_end, const RunResult& res) {
  if (obs_ == nullptr) return;
  ObsState& st = *obs_;
  const Seconds t = time_offset_ + local_end;
  if (auto* tb = config_.obs->trace) {
    for (auto& ch : channels_) obs_lease_end(ch, t);
    for (std::size_t c = 0; c < st.chunk_open.size(); ++c) {
      if (st.chunk_open[c] != 0) tb->end(t, obs::kChunkTidBase + static_cast<int>(c));
    }
    if (st.transfer_span_open) {
      tb->end(t, obs::kControlTid);
      st.transfer_span_open = false;
    }
    tb->instant(t, obs::kControlTid, res.completed ? "run-complete" : "run-aborted",
                "session", {"bytes", static_cast<double>(res.bytes)},
                {"energy_j", res.end_system_energy});
  }
  if (st.ticks != nullptr) {
    auto& m = *config_.obs->metrics;
    const Bytes wire_delta = bytes_moved_ - st.wire_at_start;
    const Bytes wasted_delta = fault_stats_.wasted_bytes - st.wasted_at_start;
    st.wire_bytes->add(wire_delta);
    st.goodput_bytes->add(wire_delta >= wasted_delta ? wire_delta - wasted_delta : 0);
    st.retries->add(static_cast<std::uint64_t>(
        std::max<std::int64_t>(0, fault_stats_.retries - st.retries_at_start)));
    m.histogram("session.run_duration_s", {10.0, 60.0, 300.0, 1800.0, 7200.0, 43200.0})
        .observe(local_end);
    m.histogram("session.run_energy_j", {1e2, 1e3, 1e4, 1e5, 1e6, 1e7})
        .observe(res.end_system_energy);
    for (std::size_t c = 0; c < st.chunk_energy.size(); ++c) {
      m.histogram(std::string("session.chunk_energy_j.") + to_string(plan_.chunks[c].cls),
                  {1e2, 1e3, 1e4, 1e5, 1e6, 1e7})
          .observe(st.chunk_energy[c]);
    }
    sim_.counters().publish(m);
  }
}

void TransferSession::rebalance() {
  const auto& desired = desired_allocation();
  const std::size_t n_chunks = plan_.chunks.size();

  auto& have = scratch_.have;
  have.assign(n_chunks, 0);
  for (const auto& ch : channels_) {
    if (ch.chunk >= 0) ++have[static_cast<std::size_t>(ch.chunk)];
  }

  // Release surplus channels, idle ones first, then preempt busy ones
  // (preempted remainders go back to the front of the queue).
  auto& free_slots = scratch_.free_slots;
  free_slots.clear();
  for (std::size_t c = 0; c < n_chunks; ++c) {
    int surplus = have[c] - desired[c];
    if (surplus <= 0) continue;
    for (int pass = 0; pass < 2 && surplus > 0; ++pass) {
      const bool want_busy = pass == 1;
      for (std::size_t i = 0; i < channels_.size() && surplus > 0; ++i) {
        auto& ch = channels_[i];
        // A down channel cannot be reassigned or closed: its connection is
        // being re-established; it keeps its slot until it revives.
        if (ch.down || ch.chunk != static_cast<int>(c) || ch.busy != want_busy) continue;
        if (std::find(free_slots.begin(), free_slots.end(), i) != free_slots.end()) continue;
        free_slots.push_back(i);
        --surplus;
      }
    }
  }

  // Reassign freed channels to deficits; close what is left over.
  auto& to_close = scratch_.to_close;
  to_close.clear();
  std::size_t cursor = 0;
  for (std::size_t c = 0; c < n_chunks; ++c) {
    int deficit = desired[c] - have[c];
    while (deficit > 0 && cursor < free_slots.size()) {
      auto& ch = channels_[free_slots[cursor++]];
      if (ch.busy && ch.work.remaining > 0) {
        queues_[static_cast<std::size_t>(ch.chunk)].push_front(ch.work);
        ch.busy = false;
        ch.work = {};
        ch.overhead_left = 0.0;
      }
      obs_lease_end(ch, abs_now());  // the lease moves chunks: close + reopen
      assign_channel(ch, static_cast<int>(c));
      obs_lease_begin(ch);
      --deficit;
    }
    while (deficit > 0) {
      open_channel(static_cast<int>(c));
      --deficit;
    }
  }
  for (; cursor < free_slots.size(); ++cursor) to_close.push_back(free_slots[cursor]);
  std::sort(to_close.rbegin(), to_close.rend());
  for (std::size_t idx : to_close) close_channel(idx);
}

bool TransferSession::pop_next_file(Channel& ch) {
  auto& q = queues_[static_cast<std::size_t>(ch.chunk)];
  if (q.empty()) return false;
  ch.work = q.front();
  q.pop_front();
  ch.busy = true;
  ch.overhead_left = per_file_overhead(ch, ch.work.remaining, ch.cold);
  ch.cold = false;
  return true;
}

Seconds TransferSession::per_file_overhead(const Channel& ch, Bytes size,
                                           bool cold) const {
  // Server-side per-file cost plus the control-channel stall, amortised by
  // pipelining. The congestion window ramps from scratch only on a cold
  // (new/reassigned) channel — GridFTP reuses data connections across files.
  // Between files of a warm channel: pipelined channels never go idle (no
  // decay); unpipelined ones sit a full RTT waiting for the next command,
  // losing part of the window.
  const double warm = cold ? 0.0 : (ch.pipelining > 1 ? 1.0 : env_.warm_fraction);
  Seconds overhead = ch.fixed_overhead + slow_start(size, warm);
  if (plan_.checksum_rate > 0.0) {
    overhead += to_bits(size) / plan_.checksum_rate;  // post-landing verify pass
  }
  return overhead;
}

Seconds TransferSession::slow_start(Bytes size, double warm) const {
  // On a path with an RTT, slow_start_penalty is
  // rtt * max(0, log2(target / IW)) * (1 - clamp(warm)), multiplied left to
  // right. Its first product is finite and non-negative, so a fully warm
  // window makes the whole term exactly +0.0. Every file at or past
  // ramp_target_ shares that first product: full_ramp_ is it times
  // (1 - 0) = 1.0, which is exact.
  if (env_.path.rtt > 0.0) {
    if (warm >= 1.0) return 0.0;
    if (size >= ramp_target_) return full_ramp_ * (1.0 - std::clamp(warm, 0.0, 1.0));
  }
  return net::slow_start_penalty(env_.path, size, warm);
}

void TransferSession::rebuild_layout() {
  layout_dirty_ = false;
  for (Side& side : sides_) {
    side.procs.assign(side.up.size(), 0);
    side.threads.assign(side.up.size(), 0);
  }
  for (const auto& ch : channels_) {
    if (ch.down) continue;  // a dead connection holds no server processes
    for (std::size_t k = 0; k < 2; ++k) {
      ++sides_[k].procs[ch.server[k]];
      sides_[k].threads[ch.server[k]] += ch.parallelism;
    }
  }

  // With the per-server counts fixed, a channel's pre-duty cap is the
  // smallest of its TCP windows, both CPU shares and both storage ceilings.
  const BitsPerSecond window_cap = net::stream_window_cap(env_.path);
  for (auto& ch : channels_) {
    if (ch.down) continue;
    BitsPerSecond cpu[2], stream[2];
    for (std::size_t k = 0; k < 2; ++k) {
      const std::size_t s = ch.server[k];
      const auto& spec = sides_[k].endpoint->servers[s];
      cpu[k] = host::channel_cpu_cap(spec, sides_[k].procs[s], sides_[k].threads[s],
                                     ch.parallelism);
      stream[k] = host::channel_stream_cap(spec, ch.parallelism);
    }
    ch.base_cap = std::min({static_cast<double>(ch.parallelism) * window_cap, cpu[0],
                            cpu[1], stream[0], stream[1]});
  }
}

void TransferSession::collect_link_demands() {
  if (layout_dirty_) rebuild_layout();

  // Per-channel caps before disk come from the layout; the duty cycle
  // depends on the file in flight, so it is computed every tick. All working
  // vectors live in scratch_ so a steady-state tick never allocates.
  auto& caps = scratch_.caps;
  auto& duty = scratch_.duty;
  caps.assign(channels_.size(), 0.0);
  duty.assign(channels_.size(), 1.0);
  int total_streams = 0;
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    auto& ch = channels_[i];
    ch.rate = 0.0;
    ch.moved_this_tick = 0;
    if (!ch.busy) continue;
    caps[i] = ch.base_cap;
    total_streams += ch.parallelism;

    // Duty cycle: the fraction of time this channel actually streams, given
    // its per-file overheads. A channel chewing through small files only
    // *consumes* bandwidth while transferring, so its fair-share demand is
    // duty-weighted; it bursts at rate/duty when it does send.
    const Bytes fsize = std::max<Bytes>(ch.work.remaining, 1);
    const Seconds overhead = per_file_overhead(ch, fsize, false);
    const Seconds tx = caps[i] > 0.0 ? to_bits(fsize) / caps[i] : 0.0;
    duty[i] = (overhead > 0.0 && tx > 0.0) ? tx / (tx + overhead) : 1.0;
    duty[i] = std::max(duty[i], 0.05);
    caps[i] *= duty[i];
  }

  // Disk pools are work-conserving: each server's aggregate disk bandwidth is
  // shared max-min across its channels, so a channel stalling on per-file
  // overheads donates its slack to streaming channels (this is what lets a
  // multi-chunk schedule beat sequential phases). Each busy channel keeps
  // the smaller of its cap and its share (net::unit_fill_clamp).
  auto& pool_caps = scratch_.pool_caps;
  auto& idx = scratch_.pool_index;
  for (std::size_t k = 0; k < 2; ++k) {
    const Side& side = sides_[k];
    for (std::size_t s = 0; s < side.procs.size(); ++s) {
      if (side.procs[s] <= 0) continue;
      const BitsPerSecond pool =
          host::disk_aggregate_bandwidth(side.endpoint->servers[s].disk, side.procs[s]);
      pool_caps.clear();
      idx.clear();
      for (std::size_t i = 0; i < channels_.size(); ++i) {
        if (channels_[i].server[k] != s || !channels_[i].busy) continue;
        pool_caps.push_back(caps[i]);
        idx.push_back(i);
      }
      net::unit_fill_clamp(pool, pool_caps, scratch_.fair_share);
      for (std::size_t j = 0; j < idx.size(); ++j) caps[idx[j]] = pool_caps[j];
    }
  }

  auto& demands = scratch_.link_demands;
  demands.assign(channels_.size(), net::Demand{});
  double aggregate_demand = 0.0;
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    if (!channels_[i].busy) continue;
    demands[i] = {caps[i], static_cast<double>(channels_[i].parallelism)};
    aggregate_demand += caps[i];
  }
  agg_demand_ = aggregate_demand;
  agg_streams_ = total_streams;
}

std::span<const net::Demand> TransferSession::link_demands() const noexcept {
  return scratch_.link_demands;
}

std::span<const net::DemandGroup> TransferSession::link_demand_groups() {
  auto& groups = scratch_.link_groups;
  groups.clear();
  // Run-length collapse: adjacent channels with bitwise-equal (cap, weight)
  // merge — typically every idle channel ({0, 1}) and every same-shape busy
  // cluster. Expanding `groups` in order reproduces link_demands() exactly.
  for (const net::Demand& d : scratch_.link_demands) {
    if (!groups.empty() && groups.back().cap == d.cap &&
        groups.back().weight == d.weight) {
      ++groups.back().count;
    } else {
      groups.push_back({d.cap, d.weight, 1});
    }
  }
  return groups;
}

void TransferSession::apply_link_allocation(std::span<const BitsPerSecond> alloc,
                                            const double eff, const double burst_cap) {
  const auto& duty = scratch_.duty;
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    double jitter = 1.0;
    if (env_.rate_jitter_sd > 0.0) {
      // Multiplicative noise, floored so a draw never stalls a channel.
      jitter = std::max(0.1, 1.0 + jitter_rng_.normal(0.0, env_.rate_jitter_sd));
    }
    channels_[i].rate =
        alloc[i] * eff * std::min(1.0 / duty[i], burst_cap) * jitter;
  }

  // NIC ceilings per server: proportional scale-down if the *average* load
  // (burst rate x duty) oversubscribes the card. A server with no live
  // process carries only down channels, whose rates are 0: its sum is +0.
  for (std::size_t k = 0; k < 2; ++k) {
    const Side& side = sides_[k];
    for (std::size_t s = 0; s < side.procs.size(); ++s) {
      const BitsPerSecond nic = side.endpoint->servers[s].nic_speed;
      if (nic <= 0.0 || side.procs[s] == 0) continue;
      double sum = 0.0;
      for (std::size_t i = 0; i < channels_.size(); ++i) {
        if (channels_[i].server[k] == s) sum += channels_[i].rate * duty[i];
      }
      if (sum > nic) {
        const double f = nic / sum;
        for (auto& ch : channels_) {
          if (ch.server[k] == s) ch.rate *= f;
        }
      }
    }
  }
}

void TransferSession::allocate_rates() {
  collect_link_demands();

  // Brownouts scale the shared link; 1.0 outside any fault window.
  const BitsPerSecond capacity = env_.path.available_bandwidth() * path_factor_;
  auto& link_alloc = scratch_.link_alloc;
  net::fair_share_reference_into(capacity, scratch_.link_demands, link_alloc,
                                 scratch_.fair_share);
  const net::RoundFactors f =
      net::round_factors(env_.congestion, capacity, agg_demand_, agg_streams_, link_alloc);
  apply_link_allocation(link_alloc, f.eff, f.burst_cap);
}

void TransferSession::advance_channels(Seconds dt) {
  for (auto& ch : channels_) {
    if (!ch.busy) continue;
    Seconds budget = dt;
    while (budget > 1e-12 && ch.busy) {
      if (ch.overhead_left > 0.0) {
        const Seconds pay = std::min(ch.overhead_left, budget);
        ch.overhead_left -= pay;
        budget -= pay;
        continue;
      }
      if (ch.rate <= 0.0) break;
      const double can_move = ch.rate * budget / 8.0;
      if (can_move >= static_cast<double>(ch.work.remaining)) {
        const Bytes done = ch.work.remaining;
        budget -= static_cast<double>(done) * 8.0 / ch.rate;
        ch.moved_this_tick += done;
        bytes_moved_ += done;
        window_bytes_ += done;
        chunk_remaining_[static_cast<std::size_t>(ch.chunk)] -= done;
        const QueueEntry landed = ch.work;
        ch.work = {};
        ch.busy = false;
        ch.failures = 0;  // a landed file proves the slot healthy again
        if (faults_.stochastic.checksum_failure_prob > 0.0 &&
            checksum_rng_.uniform01() < faults_.stochastic.checksum_failure_prob) {
          // End-to-end verification rejected the file: every byte of it was
          // wasted and the whole file re-enters its queue.
          ++fault_stats_.checksum_failures;
          ++fault_stats_.retries;
          charge_waste(landed.size);
          chunk_remaining_[static_cast<std::size_t>(ch.chunk)] += landed.size;
          queues_[static_cast<std::size_t>(ch.chunk)].push_back(
              {landed.file_id, landed.size, landed.size});
        }
        if (!pop_next_file(ch)) break;  // queue dry: channel idles
      } else {
        const Bytes moved = static_cast<Bytes>(can_move);
        ch.work.remaining -= moved;
        ch.moved_this_tick += moved;
        bytes_moved_ += moved;
        window_bytes_ += moved;
        chunk_remaining_[static_cast<std::size_t>(ch.chunk)] -= moved;
        budget = 0.0;
      }
    }
  }
}

Joules TransferSession::account_energy(Seconds dt) {
  Bytes tick_bytes = 0;
  Joules tick_energy = 0.0;

  // Processes and threads come from the layout, which no fault has moved
  // since this tick's collect_link_demands(); a server with neither draws
  // no power.
  for (std::size_t k = 0; k < 2; ++k) {
    Side& side = sides_[k];
    const Endpoint& ep = *side.endpoint;
    for (std::size_t s = 0; s < side.procs.size(); ++s) {
      if (side.procs[s] == 0) continue;
      host::HostLoad load;
      load.processes = side.procs[s];
      load.threads = side.threads[s];
      load.buffered = static_cast<Bytes>(side.threads[s]) * env_.path.tcp_buffer;
      for (const auto& ch : channels_) {
        if (ch.down) continue;  // no process, no load, no power draw
        if (ch.server[k] == s) {
          load.goodput += static_cast<double>(ch.moved_this_tick) * 8.0 / dt;
        }
      }
      load.disk_io = load.goodput;
      const auto u = host::utilization(ep.servers[s], load);
      const int n = host::active_cores(ep.servers[s], load);
      const Watts p = power::fine_grained_power(ep.power, n, u);
      side.energy[s].joules += p * dt;
      side.energy[s].active_time += dt;
      window_energy_ += p * dt;
      tick_energy += p * dt;
    }
  }

  for (const auto& ch : channels_) tick_bytes += ch.moved_this_tick;
  last_tick_bytes_ = tick_bytes;
  // power::route_transfer_energy with the per-packet chain held per session.
  const Bytes mtu = env_.path.mtu;
  network_energy_ +=
      tick_bytes == 0 || mtu == 0
          ? 0.0
          : std::ceil(static_cast<double>(tick_bytes) / static_cast<double>(mtu)) *
                route_packet_energy_;
  return tick_energy;
}

bool TransferSession::finished() const {
  for (const auto& q : queues_) {
    if (!q.empty()) return false;
  }
  return std::none_of(channels_.begin(), channels_.end(),
                      [](const Channel& ch) { return ch.busy; });
}

void TransferSession::tick_prepare() {
  if (faults_.active()) revive_channels();

  // Feed idle channels; if any chunk ran dry, rebalance and feed again.
  // Down channels take no work until their backoff expires.
  bool dry = false;
  for (auto& ch : channels_) {
    if (ch.down) continue;
    if (!ch.busy && !pop_next_file(ch)) dry = true;
  }
  const int open_now = static_cast<int>(channels_.size());
  if (dry || open_now != effective_concurrency()) {
    rebalance();
    for (auto& ch : channels_) {
      if (!ch.busy && !ch.down) pop_next_file(ch);
    }
  }
}

void TransferSession::advance_compute() {
  const Seconds dt = config_.tick;
  advance_channels(dt);
  const Joules tick_energy = account_energy(dt);
  end_system_total_ += tick_energy;
  last_tick_power_ = tick_energy / dt;
  pending_tick_energy_ = tick_energy;
}

bool TransferSession::advance_commit() {
  const Seconds dt = config_.tick;
  const Joules tick_energy = pending_tick_energy_;

  if (obs_ != nullptr) obs_tick(tick_energy, dt);

  // The ticker first fires at t = dt, so the firing at time t covers the
  // slice [t - dt, t]: "now" is the end of the slice just processed.
  const Seconds t_end = sim_.now();
  const bool done = finished();
  if (t_end - window_start_ >= config_.sample_interval - 1e-9 || done) {
    SampleStats s;
    // Windows are reported in absolute transfer time: a resumed leg's first
    // window starts where the interrupted run's checkpoint left off (and a
    // shared-simulation tenant's where its own begin() fell).
    s.window_start = time_offset_ + (window_start_ - start_time_);
    s.window_end = time_offset_ + (t_end - start_time_);
    s.bytes = window_bytes_;
    s.end_system_energy = window_energy_;
    s.wasted_bytes = window_wasted_;
    int active = 0, down = 0;
    for (const auto& ch : channels_) {
      active += ch.busy ? 1 : 0;
      down += ch.down ? 1 : 0;
    }
    s.active_channels = active;
    s.down_channels = down;
    samples_.push_back(s);
    obs_sample(s);
    window_start_ = t_end;
    window_bytes_ = 0;
    window_wasted_ = 0;
    window_energy_ = 0.0;
    if (controller_ != nullptr && !done) controller_->on_sample(*this, s);
  }
  return !done;
}

bool TransferSession::tick() {
  tick_prepare();
  allocate_rates();
  advance_compute();
  return advance_commit();
}

std::optional<std::string> TransferSession::begin(Controller* controller) {
  if (auto bad = faults_.validate()) {
    return "invalid FaultPlan: " + *bad;
  }
  // The epoch: on an owned simulation this is 0.0 and every localisation
  // below degenerates to the exact arithmetic of the single-session engine.
  start_time_ = sim_.now();
  window_start_ = sim_.now();
  controller_ = controller;
  if (controller_ != nullptr) {
    if (const auto init = controller_->initial_concurrency(); init) {
      set_total_concurrency(*init);
    }
    controller_->on_start(*this);
  }
  obs_begin_run();  // before rebalance(), so the first leases are traced
  rebalance();

  if (faults_.active()) arm_faults();

  // Sampling windows land every sample_interval: reserving them up front
  // keeps steady-state ticks allocation-free (bounded so a week-long default
  // guard does not pre-commit megabytes).
  if (config_.sample_interval > 0.0) {
    const double windows = config_.max_sim_time / config_.sample_interval + 2.0;
    samples_.reserve(static_cast<std::size_t>(std::min(windows, 4096.0)));
  }
  return std::nullopt;
}

RunResult TransferSession::run(Controller* controller) {
  if (auto bad = begin(controller)) {
    RunResult refused;
    refused.completed = false;
    refused.error = std::move(*bad);
    return refused;
  }

  Seconds finish_time = config_.max_sim_time;
  bool completed = false;
  sim_.add_ticker(config_.tick, [this, &finish_time, &completed]() {
    if (sim_.now() > config_.max_sim_time) return false;
    const bool more = tick();
    if (!more) {
      // The guard above admits ticks at t <= max_sim_time only, but ticker
      // timestamps accumulate floating-point error; the clamp guarantees a
      // finish time can never land even a fraction of a tick past the
      // deadline (regression-tested in test_session.cpp).
      finish_time = std::min(sim_.now(), config_.max_sim_time);
      completed = true;
    }
    return more;
  });
  sim_.run_until(config_.max_sim_time + config_.tick);
  return finalize(completed, completed ? finish_time : config_.max_sim_time);
}

RunResult TransferSession::finalize(bool completed, Seconds end_raw) {
  // Down-since stamps are in the raw simulation clock; close the books
  // against it, then report durations relative to this session's epoch (plus
  // any resume offset). For an owned simulation the epoch is 0 and end_raw
  // is exactly the old local_end.
  const Seconds local_end = end_raw - start_time_;
  RunResult res;
  res.duration = time_offset_ + local_end;
  res.bytes = bytes_moved_;
  res.network_energy = network_energy_;
  res.final_concurrency = target_concurrency_;
  res.completed = completed;
  // Close the books on anything still down when the run ended.
  for (const auto& ch : channels_) {
    if (ch.down && end_raw > ch.down_since) {
      fault_stats_.channel_downtime += end_raw - ch.down_since;
    }
  }
  for (const Side& side : sides_) {
    for (std::size_t s = 0; s < side.up.size(); ++s) {
      if (side.up[s] == 0 && end_raw > side.down_since[s]) {
        fault_stats_.server_downtime += end_raw - side.down_since[s];
      }
    }
  }
  res.faults = fault_stats_;
  if (!completed) {
    // The abort checkpoint: the journal entry a resumed leg starts from.
    res.checkpoint = make_checkpoint();
  }
  res.sim_counters = sim_.counters();
  res.samples = std::move(samples_);
  res.source_servers = sides_[0].energy;
  res.destination_servers = sides_[1].energy;
  for (const Side& side : sides_) {
    for (const auto& s : side.energy) res.end_system_energy += s.joules;
  }
  obs_end_run(local_end, res);
  return res;
}

}  // namespace eadt::proto
