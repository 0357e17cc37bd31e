#include "core/algorithms.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <string>

#include "obs/obs.hpp"

namespace eadt::core {
namespace {

__attribute__((format(printf, 1, 2))) std::string strf(const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

/// The dataset partition every planner starts from, as one decision record.
void log_partition(obs::DecisionLog* log, const char* actor,
                   const proto::TransferPlan& plan) {
  if (log == nullptr) return;
  obs::Decision d;
  d.kind = obs::DecisionKind::kPlanPartition;
  d.actor = actor;
  d.subject = strf("partitioned dataset into %zu chunk(s)", plan.chunks.size());
  std::string detail;
  for (std::size_t i = 0; i < plan.chunks.size(); ++i) {
    const auto& c = plan.chunks[i];
    detail += strf("%s%s: %zu files, %.2f GB, pp=%d, p=%d", i ? "; " : "",
                   proto::to_string(c.cls), c.file_ids.size(), to_gb(c.total),
                   plan.params[i].pipelining, plan.params[i].parallelism);
  }
  d.detail = std::move(detail);
  log->record(std::move(d));
}

}  // namespace

proto::TransferPlan tuned_chunk_plan(const proto::Environment& env,
                                     const proto::Dataset& dataset,
                                     obs::DecisionLog* log) {
  const Bytes bdp = env.bdp();
  proto::TransferPlan plan;
  plan.chunks = proto::merge_chunks(proto::partition_files(dataset, bdp));
  plan.params.resize(plan.chunks.size());
  for (std::size_t i = 0; i < plan.chunks.size(); ++i) {
    const Bytes avg = plan.chunks[i].avg_file_size();
    plan.params[i].pipelining = pipelining_level(bdp, avg);
    plan.params[i].parallelism = parallelism_level(bdp, avg, env.path.tcp_buffer);
    plan.params[i].channels = 0;
    if (log != nullptr) {
      obs::Decision d;
      d.kind = obs::DecisionKind::kPlanTune;
      d.actor = "Tuner";
      d.level = plan.params[i].pipelining;
      d.chosen = plan.params[i].parallelism;
      d.subject = strf("%s chunk tuned: pp=%d, p=%d", proto::to_string(plan.chunks[i].cls),
                       plan.params[i].pipelining, plan.params[i].parallelism);
      d.detail = strf("avg file %.1f MB vs BDP %.1f MB: pipelining ceil(BDP/avg), "
                      "parallelism from BDP/buffer (tcp_buffer %.1f MB)",
                      to_mb(avg), to_mb(bdp), to_mb(env.path.tcp_buffer));
      log->record(std::move(d));
    }
  }
  return plan;
}

proto::TransferPlan plan_min_energy(const proto::Environment& env,
                                    const proto::Dataset& dataset, int max_channels,
                                    obs::DecisionLog* log) {
  proto::TransferPlan plan = tuned_chunk_plan(env, dataset, log);
  log_partition(log, "MinE", plan);
  const Bytes bdp = env.bdp();
  int avail = std::max(1, max_channels);
  // Algorithm 1's loop runs Small -> Large; partition_files already returns
  // chunks in that order. Small chunks grab ceil((avail+1)/2) first, the
  // Large chunk's ceil(BDP/avg) term pins it to one channel.
  for (std::size_t i = 0; i < plan.chunks.size(); ++i) {
    const int cc = concurrency_level(bdp, plan.chunks[i].avg_file_size(), avail);
    plan.params[i].channels = cc;
    avail -= cc;
    if (log != nullptr) {
      obs::Decision d;
      d.kind = obs::DecisionKind::kPlanChannelWalk;
      d.actor = "MinE";
      d.level = cc;
      d.chosen = cc;
      d.subject = strf("%s chunk gets %d channel(s)", proto::to_string(plan.chunks[i].cls), cc);
      d.detail = strf("channel walk Small->Large: avg file %.1f MB vs BDP %.1f MB, %d left",
                      to_mb(plan.chunks[i].avg_file_size()), to_mb(bdp), std::max(0, avail));
      log->record(std::move(d));
    }
  }
  plan.placement = proto::Placement::kPacked;
  plan.steal = proto::StealPolicy::kNonLargeOnly;
  plan.sequential_chunks = false;
  return plan;
}

proto::TransferPlan weighted_plan(const proto::Environment& env,
                                  const proto::Dataset& dataset, int channels,
                                  bool ensure_total, const char* actor,
                                  obs::DecisionLog* log) {
  proto::TransferPlan plan = tuned_chunk_plan(env, dataset, log);
  log_partition(log, actor, plan);
  const auto alloc =
      allocate_channels_by_weight(plan.chunks, std::max(1, channels), ensure_total);
  for (std::size_t i = 0; i < plan.chunks.size(); ++i) {
    plan.params[i].channels = alloc[i];
  }
  plan.placement = proto::Placement::kPacked;
  plan.steal = proto::StealPolicy::kAll;
  plan.sequential_chunks = false;
  return plan;
}

proto::TransferPlan plan_htee(const proto::Environment& env,
                              const proto::Dataset& dataset, int max_channels,
                              obs::DecisionLog* log) {
  return weighted_plan(env, dataset, max_channels, /*ensure_total=*/false, "HTEE", log);
}

void HteeController::on_sample(proto::TransferSession& session,
                               const proto::SampleStats& stats) {
  if (!searching_) return;
  // A dead window — zero duration, or zero throughput during an injected
  // outage — carries no signal about the probe level. Evaluating it would
  // record a bogus 0 ratio and advance the search; hold the probe instead
  // and score the level on its next live window.
  if (stats.duration() <= 0.0 || stats.bytes == 0) return;
  // Evaluate the probe that just ran.
  const double ratio = stats.throughput_per_joule();
  if (!std::isfinite(ratio)) return;
  const bool best = ratio > best_ratio_;
  if (best) {
    best_ratio_ = ratio;
    chosen_level_ = probe_level_;
  }
  obs::ObsSinks* obs = session.observation();
  if (obs != nullptr) {
    const double mbps = to_mbps(stats.throughput());
    if (obs->metrics != nullptr) obs->metrics->counter("algo.htee.probes").add(1);
    if (obs->trace != nullptr) {
      // The probe span covers the sampling window that was just scored.
      const char* name =
          obs->trace->intern(strf("HTEE probe cc=%d", probe_level_));
      obs->trace->begin(stats.window_start, obs::kControlTid, name, "htee",
                        {"throughput_mbps", mbps}, {"ratio", ratio});
      obs->trace->end(stats.window_end, obs::kControlTid);
    }
    if (obs->decisions != nullptr) {
      obs::Decision d;
      d.at = stats.window_end;
      d.kind = obs::DecisionKind::kHteeProbe;
      d.actor = "HTEE";
      d.level = probe_level_;
      d.chosen = chosen_level_;
      d.measured_mbps = mbps;
      d.ratio = ratio;
      d.subject = strf("probe cc=%d", probe_level_);
      d.detail = best ? strf("%.1f Mbps, ratio %.4g bps/J — best so far", mbps, ratio)
                      : strf("%.1f Mbps, ratio %.4g bps/J — below cc=%d's %.4g", mbps,
                             ratio, chosen_level_, best_ratio_);
      obs->decisions->record(std::move(d));
    }
  }
  probe_level_ += stride_;  // paper stride 2 halves the search space: 1, 3, 5, ...
  if (probe_level_ > max_channels_) {
    searching_ = false;
    session.set_total_concurrency(chosen_level_);
    if (obs != nullptr) {
      if (obs->trace != nullptr) {
        obs->trace->instant(stats.window_end, obs::kControlTid, "HTEE chose level",
                            "htee", {"cc", static_cast<double>(chosen_level_)},
                            {"ratio", best_ratio_});
      }
      if (obs->decisions != nullptr) {
        obs::Decision d;
        d.at = stats.window_end;
        d.kind = obs::DecisionKind::kHteeChoose;
        d.actor = "HTEE";
        d.level = chosen_level_;
        d.chosen = chosen_level_;
        d.ratio = best_ratio_;
        d.subject = strf("search done: run at cc=%d", chosen_level_);
        d.detail = strf("best throughput/energy ratio %.4g bps/J across %d probe(s)",
                        best_ratio_, probe_count());
        obs->decisions->record(std::move(d));
      }
    }
  } else {
    session.set_total_concurrency(probe_level_);
  }
}

proto::TransferPlan plan_slaee(const proto::Environment& env,
                               const proto::Dataset& dataset, int max_channels,
                               obs::DecisionLog* log) {
  // Small chunks get channel priority (HTEE weights); the Large chunk's
  // one-channel restriction is enforced at runtime via the large-chunk cap so
  // reArrangeChannels can lift it.
  return weighted_plan(env, dataset, max_channels, /*ensure_total=*/true, "SLAEE", log);
}

void SlaeeController::on_start(proto::TransferSession& session) {
  session.set_large_chunk_cap(1);
}

void SlaeeController::on_sample(proto::TransferSession& session,
                                const proto::SampleStats& stats) {
  if (!warmed_up_) {
    // The first window is cold (slow-start, channel setup); acting on it
    // would jump to a needlessly high level that then cannot be walked back.
    warmed_up_ = true;
    return;
  }
  const BitsPerSecond raw = stats.throughput();
  if (raw <= 0.0) return;
  // Exponentially smoothed throughput: a transfer's rate breathes as the
  // chunk mix shifts; reacting to a single window's dip walks the level all
  // the way to the maximum for targets that are actually satisfied.
  smoothed_ = smoothed_ > 0.0 ? 0.6 * smoothed_ + 0.4 * raw : raw;
  const BitsPerSecond act = smoothed_;
  // A whisker below target is within the SLA's own deviation allowance.
  if (act >= target_ * (1.0 - kDeficitTolerance)) {
    consecutive_deficits_ = 0;
    return;
  }
  // Drain guard: when less than a couple of windows' worth of data remains,
  // a low reading just means the transfer is finishing — don't escalate.
  const double window_bytes = target_ * stats.duration() / 8.0;
  if (static_cast<double>(session.bytes_remaining()) < 2.0 * window_bytes) return;
  // Hysteresis: act on a sustained deficit, not a single noisy window (file
  // boundaries can make one window read low); there is no way back down.
  if (++consecutive_deficits_ < 2) return;
  consecutive_deficits_ = 0;

  obs::ObsSinks* obs = session.observation();
  const double deficit_pct = 100.0 * (1.0 - act / target_);
  const auto note = [&](obs::DecisionKind kind, int from_level, std::string subject,
                        std::string detail) {
    if (obs == nullptr) return;
    if (obs->metrics != nullptr) {
      obs->metrics
          ->counter(kind == obs::DecisionKind::kSlaeeJump        ? "algo.slaee.jumps"
                    : kind == obs::DecisionKind::kSlaeeStep      ? "algo.slaee.steps"
                                                                 : "algo.slaee.rearranges")
          .add(1);
    }
    if (obs->trace != nullptr) {
      obs->trace->instant(stats.window_end, obs::kControlTid,
                          obs->trace->intern(subject), "slaee",
                          {"measured_mbps", to_mbps(act)},
                          {"target_mbps", to_mbps(target_)});
    }
    if (obs->decisions != nullptr) {
      obs::Decision d;
      d.at = stats.window_end;
      d.kind = kind;
      d.actor = "SLAEE";
      d.level = from_level;
      d.chosen = level_;
      d.measured_mbps = to_mbps(act);
      d.target_mbps = to_mbps(target_);
      d.subject = std::move(subject);
      d.detail = std::move(detail);
      obs->decisions->record(std::move(d));
    }
  };

  if (!first_adjustment_done_ && level_ < max_channels_) {
    // Line 11: estimate the needed level from the throughput deficit.
    first_adjustment_done_ = true;
    const int from = level_;
    const double jump = std::ceil(target_ / act * static_cast<double>(level_));
    level_ = std::clamp(static_cast<int>(jump), level_ + 1, max_channels_);
    session.set_total_concurrency(level_);
    smoothed_ = 0.0;  // the level changed: start a fresh estimate
    note(obs::DecisionKind::kSlaeeJump, from, strf("jump cc %d -> %d", from, level_),
         strf("%.1f%% below target for 2 windows; ceil(target/actual * %d) = %d", deficit_pct,
              from, static_cast<int>(jump)));
    return;
  }
  if (level_ < max_channels_) {
    const int from = level_;
    ++level_;
    session.set_total_concurrency(level_);
    smoothed_ = 0.0;
    note(obs::DecisionKind::kSlaeeStep, from, strf("step cc %d -> %d", from, level_),
         strf("still %.1f%% below target after the jump; single-step increment", deficit_pct));
  } else if (!rearranged_) {
    // Line 18: reArrangeChannels — let the Large chunk hold several channels.
    rearranged_ = true;
    session.set_large_chunk_cap(std::nullopt);
    note(obs::DecisionKind::kSlaeeRearrange, level_, strf("reArrangeChannels at cc=%d", level_),
         strf("%.1f%% below target at the channel cap; lifting the Large chunk's "
              "one-channel restriction", deficit_pct));
  }
}

}  // namespace eadt::core
