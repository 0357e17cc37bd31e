// Checkpoint/resume journal: capture, serialization, and resumed-leg
// semantics. The golden contract: interrupt-at-T then resume lands exactly
// the unique bytes an uninterrupted run lands.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "proto/checkpoint.hpp"
#include "proto/faults.hpp"
#include "proto/session.hpp"
#include "test_env.hpp"

namespace eadt::proto {
namespace {

using testutil::dataset_of;
using testutil::mixed_dataset;
using testutil::small_env;

TransferPlan one_chunk_plan(const Dataset& ds, int channels, int parallelism = 2) {
  TransferPlan plan;
  Chunk chunk{SizeClass::kLarge, {}, 0};
  for (std::uint32_t i = 0; i < ds.files.size(); ++i) {
    chunk.file_ids.push_back(i);
    chunk.total += ds.files[i].size;
  }
  plan.chunks = {chunk};
  plan.params = {{1, parallelism, channels}};
  return plan;
}

/// Run to completion with no interruption.
RunResult baseline_run(const Environment& env, const Dataset& ds,
                       const TransferPlan& plan, const FaultPlan& faults = {}) {
  TransferSession s(env, ds, plan, {});
  s.set_fault_plan(faults);
  return s.run();
}

/// Run with the watchdog set to `deadline`, returning the aborted result.
RunResult interrupted_run(const Environment& env, const Dataset& ds,
                          const TransferPlan& plan, Seconds deadline,
                          const FaultPlan& faults = {}) {
  SessionConfig cfg;
  cfg.max_sim_time = deadline;
  TransferSession s(env, ds, plan, cfg);
  s.set_fault_plan(faults);
  return s.run();
}

/// Resume from `ckpt` and run the residual transfer to completion.
RunResult resumed_run(const Environment& env, const Dataset& ds,
                      const TransferPlan& plan, const TransferCheckpoint& ckpt,
                      const FaultPlan& faults = {}) {
  TransferSession s(env, ds, plan, {});
  s.set_fault_plan(faults);
  std::string err;
  EXPECT_TRUE(s.resume_from(ckpt, &err)) << err;
  return s.run();
}

TEST(Checkpoint, AbortedRunCarriesItsJournalEntry) {
  const auto env = small_env();
  const auto ds = mixed_dataset();
  const auto plan = one_chunk_plan(ds, 3);
  const auto aborted = interrupted_run(env, ds, plan, 2.0);

  ASSERT_FALSE(aborted.completed);
  ASSERT_TRUE(aborted.checkpoint.has_value());
  const auto& c = *aborted.checkpoint;
  EXPECT_DOUBLE_EQ(c.taken_at, 2.0);
  EXPECT_EQ(c.dataset_fingerprint, dataset_fingerprint(ds));
  EXPECT_EQ(c.wire_bytes, aborted.bytes);
  EXPECT_GT(c.delivered_bytes(ds), 0u);
  EXPECT_LT(c.delivered_bytes(ds), ds.total_bytes());
  // Landed + in-flight progress accounts for every wire byte (no faults, so
  // nothing was ever re-sent).
  EXPECT_EQ(c.delivered_bytes(ds), aborted.bytes);
}

TEST(Checkpoint, CompletedRunHasNoCheckpoint) {
  const auto env = small_env();
  const auto ds = dataset_of({10 * kMB, 10 * kMB});
  const auto res = baseline_run(env, ds, one_chunk_plan(ds, 2));
  ASSERT_TRUE(res.completed);
  EXPECT_FALSE(res.checkpoint.has_value());
  EXPECT_TRUE(res.error.empty());
}

TEST(Checkpoint, InterruptThenResumeLandsTheSameUniqueBytes) {
  // The acceptance pin: a run interrupted at T and resumed from its journal
  // delivers byte-identical unique goodput to the uninterrupted run.
  const auto env = small_env();
  const auto ds = mixed_dataset();
  const auto plan = one_chunk_plan(ds, 3);

  const auto whole = baseline_run(env, ds, plan);
  ASSERT_TRUE(whole.completed);
  ASSERT_EQ(whole.goodput_bytes(), ds.total_bytes());

  const auto aborted = interrupted_run(env, ds, plan, 2.0);
  ASSERT_FALSE(aborted.completed);
  const auto resumed = resumed_run(env, ds, plan, *aborted.checkpoint);

  ASSERT_TRUE(resumed.completed);
  EXPECT_EQ(resumed.goodput_bytes(), whole.goodput_bytes());
  EXPECT_EQ(resumed.bytes, whole.bytes);  // fault-free: wire == unique
  // The resumed leg reports absolute transfer time: it continues the clock
  // from the checkpoint instead of restarting at zero.
  EXPECT_GE(resumed.duration, aborted.duration);
  EXPECT_NEAR(resumed.duration, whole.duration, whole.duration * 0.10);
  for (const auto& s : resumed.samples) EXPECT_GE(s.window_start, 2.0 - 1e-9);
}

TEST(Checkpoint, ResumeNeverRePaysLandedBytes) {
  const auto env = small_env();
  const auto ds = mixed_dataset();
  const auto plan = one_chunk_plan(ds, 3);
  const auto aborted = interrupted_run(env, ds, plan, 2.0);
  ASSERT_FALSE(aborted.completed);

  const Bytes landed = aborted.checkpoint->delivered_bytes(ds);
  const auto resumed = resumed_run(env, ds, plan, *aborted.checkpoint);
  ASSERT_TRUE(resumed.completed);
  // The resumed leg's own wire traffic is exactly the unlanded remainder.
  EXPECT_EQ(resumed.bytes - aborted.bytes, ds.total_bytes() - landed);
}

TEST(Checkpoint, ResumeUnderFaultsIsDeterministicAndComplete) {
  const auto env = small_env();
  const auto ds = mixed_dataset();
  const auto plan = one_chunk_plan(ds, 3);
  FaultPlan faults;
  faults.stochastic.channel_drop_rate = 0.4;
  faults.stochastic.checksum_failure_prob = 0.02;
  faults.seed = 99;

  const auto aborted = interrupted_run(env, ds, plan, 3.0, faults);
  ASSERT_FALSE(aborted.completed);
  const auto a = resumed_run(env, ds, plan, *aborted.checkpoint, faults);
  const auto b = resumed_run(env, ds, plan, *aborted.checkpoint, faults);

  ASSERT_TRUE(a.completed);
  EXPECT_EQ(a.goodput_bytes(), ds.total_bytes());
  // Same journal, same seed: the continuation is bit-reproducible.
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.end_system_energy, b.end_system_energy);
  EXPECT_EQ(a.faults.channel_drops, b.faults.channel_drops);
  EXPECT_EQ(a.faults.wasted_bytes, b.faults.wasted_bytes);
}

TEST(Checkpoint, ResumeUnderADegradedPlanStillDeliversEverything) {
  // The journal is plan-agnostic: the supervisor may resume with fewer
  // channels (or another algorithm's chunking) over the residual dataset.
  const auto env = small_env();
  const auto ds = mixed_dataset();
  const auto aborted = interrupted_run(env, ds, one_chunk_plan(ds, 4), 2.0);
  ASSERT_FALSE(aborted.completed);

  const auto resumed = resumed_run(env, ds, one_chunk_plan(ds, 1, 1), *aborted.checkpoint);
  ASSERT_TRUE(resumed.completed);
  EXPECT_EQ(resumed.goodput_bytes(), ds.total_bytes());
}

TEST(Checkpoint, SerializationRoundTripIsBitExact) {
  const auto env = small_env(2);
  const auto ds = mixed_dataset();
  auto plan = one_chunk_plan(ds, 3);
  plan.placement = Placement::kRoundRobin;
  FaultPlan faults;
  faults.stochastic.channel_drop_rate = 0.6;
  faults.retry.restart_markers = false;
  faults.seed = 7;
  const auto aborted = interrupted_run(env, ds, plan, 3.0, faults);
  ASSERT_TRUE(aborted.checkpoint.has_value());
  const auto& c = *aborted.checkpoint;

  std::stringstream journal;
  write_checkpoint(journal, c);
  std::string err;
  const auto parsed = read_checkpoint(journal, &err);
  ASSERT_TRUE(parsed.has_value()) << err;

  EXPECT_EQ(parsed->taken_at, c.taken_at);  // hex-floats: exact, not near
  EXPECT_EQ(parsed->dataset_fingerprint, c.dataset_fingerprint);
  EXPECT_EQ(parsed->wire_bytes, c.wire_bytes);
  EXPECT_EQ(parsed->end_system_energy, c.end_system_energy);
  EXPECT_EQ(parsed->network_energy, c.network_energy);
  EXPECT_EQ(parsed->faults.retries, c.faults.retries);
  EXPECT_EQ(parsed->faults.wasted_bytes, c.faults.wasted_bytes);
  EXPECT_EQ(parsed->faults.wasted_joules, c.faults.wasted_joules);
  EXPECT_EQ(parsed->faults.channel_downtime, c.faults.channel_downtime);
  EXPECT_EQ(parsed->quarantined_channels, c.quarantined_channels);
  EXPECT_EQ(parsed->completed, c.completed);
  ASSERT_EQ(parsed->partial.size(), c.partial.size());
  for (std::size_t i = 0; i < c.partial.size(); ++i) {
    EXPECT_EQ(parsed->partial[i].file_id, c.partial[i].file_id);
    EXPECT_EQ(parsed->partial[i].delivered, c.partial[i].delivered);
  }
  EXPECT_EQ(parsed->channel_chunks, c.channel_chunks);
  ASSERT_EQ(parsed->source_servers.size(), c.source_servers.size());
  for (std::size_t i = 0; i < c.source_servers.size(); ++i) {
    EXPECT_EQ(parsed->source_servers[i].name, c.source_servers[i].name);
    EXPECT_EQ(parsed->source_servers[i].joules, c.source_servers[i].joules);
    EXPECT_EQ(parsed->source_servers[i].active_time, c.source_servers[i].active_time);
  }
  EXPECT_EQ(parsed->jitter_rng, c.jitter_rng);
  EXPECT_EQ(parsed->victim_rng, c.victim_rng);
  EXPECT_EQ(parsed->backoff_rng, c.backoff_rng);
  EXPECT_EQ(parsed->checksum_rng, c.checksum_rng);

  // A parsed journal resumes exactly like the in-memory checkpoint.
  const auto via_memory = resumed_run(env, ds, plan, c, faults);
  const auto via_journal = resumed_run(env, ds, plan, *parsed, faults);
  EXPECT_EQ(via_memory.duration, via_journal.duration);
  EXPECT_EQ(via_memory.bytes, via_journal.bytes);
  EXPECT_EQ(via_memory.end_system_energy, via_journal.end_system_energy);
}

/// The run the reader tests corrupt: drops at 0.6 per second over two
/// servers a side, cut at `deadline`.
struct CutRun {
  Environment env = small_env(2);
  Dataset ds = mixed_dataset();
  TransferPlan plan = one_chunk_plan(ds, 3);
  FaultPlan faults;
  CutRun() {
    faults.stochastic.channel_drop_rate = 0.6;
    faults.seed = 7;
  }
  [[nodiscard]] std::string journal(Seconds deadline) const {
    const auto aborted = interrupted_run(env, ds, plan, deadline, faults);
    std::ostringstream os;
    if (aborted.checkpoint) write_checkpoint(os, *aborted.checkpoint);
    return os.str();
  }
};

TEST(Checkpoint, ReaderRejectsMalformedInput) {
  std::string err;
  {
    std::istringstream empty("");
    EXPECT_FALSE(read_checkpoint(empty, &err).has_value());
    EXPECT_FALSE(err.empty());
  }
  {
    std::istringstream wrong("eadt-checkpoint 999\n");
    EXPECT_FALSE(read_checkpoint(wrong, &err).has_value());
    EXPECT_NE(err.find("version"), std::string::npos) << err;
  }
  {
    std::istringstream garbage("not a journal at all\n");
    EXPECT_FALSE(read_checkpoint(garbage, &err).has_value());
  }

  // A journal that parses but that no session could have written: resume
  // refuses it, one field at a time, and names the field. Each case goes
  // through the text format, whose reader accepts any number.
  const CutRun cut;
  const auto& [env, ds, plan, faults] = cut;
  const auto aborted = interrupted_run(env, ds, plan, 3.0, faults);
  ASSERT_TRUE(aborted.checkpoint.has_value());
  const auto resume = [&](const TransferCheckpoint& c, std::string* why) {
    std::stringstream journal;
    write_checkpoint(journal, c);
    const auto parsed = read_checkpoint(journal, why);
    EXPECT_TRUE(parsed.has_value()) << *why;
    if (!parsed) return false;
    TransferSession s(env, ds, plan, {});
    s.set_fault_plan(faults);
    return s.resume_from(*parsed, why);
  };
  ASSERT_TRUE(resume(*aborted.checkpoint, &err)) << err;  // well-formed resumes

  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::pair<const char*, void (*)(TransferCheckpoint&)> cases[] = {
      {"quarantined", [](TransferCheckpoint& c) { c.quarantined_channels = -40; }},
      {"faults.retries", [](TransferCheckpoint& c) { c.faults.retries = -1; }},
      {"faults.channel_drops", [](TransferCheckpoint& c) { c.faults.channel_drops = -1; }},
      {"faults.checksum_failures",
       [](TransferCheckpoint& c) { c.faults.checksum_failures = -1; }},
      {"faults.server_outages", [](TransferCheckpoint& c) { c.faults.server_outages = -1; }},
      {"faults.quarantined_channels",
       [](TransferCheckpoint& c) { c.faults.quarantined_channels = -1; }},
      {"taken_at", [](TransferCheckpoint& c) { c.taken_at = kNan; }},
      {"taken_at", [](TransferCheckpoint& c) { c.taken_at = -1.0; }},
      {"taken_at", [](TransferCheckpoint& c) { c.taken_at = kInf; }},
      {"end_system_energy", [](TransferCheckpoint& c) { c.end_system_energy = -16.0; }},
      {"end_system_energy", [](TransferCheckpoint& c) { c.end_system_energy = kNan; }},
      {"network_energy", [](TransferCheckpoint& c) { c.network_energy = -1.0; }},
      {"network_energy", [](TransferCheckpoint& c) { c.network_energy = kInf; }},
      {"faults.wasted_joules", [](TransferCheckpoint& c) { c.faults.wasted_joules = -1.0; }},
      {"faults.channel_downtime",
       [](TransferCheckpoint& c) { c.faults.channel_downtime = kNan; }},
      {"faults.server_downtime",
       [](TransferCheckpoint& c) { c.faults.server_downtime = -kInf; }},
      {"srv", [](TransferCheckpoint& c) { c.source_servers[0].joules = -1024.0; }},
      {"srv1", [](TransferCheckpoint& c) { c.source_servers[1].active_time = kNan; }},
      {"srv", [](TransferCheckpoint& c) { c.destination_servers[0].joules = kInf; }},
      {"srv1", [](TransferCheckpoint& c) { c.destination_servers[1].active_time = -0.0625; }},
      {"wire_bytes", [](TransferCheckpoint& c) { c.wire_bytes = 0; }},
      {"wire_bytes", [](TransferCheckpoint& c) { c.wire_bytes += 1; }},
      {"wire_bytes", [](TransferCheckpoint& c) { c.faults.wasted_bytes = c.wire_bytes + 1; }},
  };
  for (const auto& [named, corrupt] : cases) {
    TransferCheckpoint c = *aborted.checkpoint;
    corrupt(c);
    std::string why;
    EXPECT_FALSE(resume(c, &why)) << named;
    EXPECT_NE(why.find(named), std::string::npos) << why;
  }
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& line : lines) out += line + '\n';
  return out;
}

TEST(Checkpoint, SeededMutationsAreRefusedOrResumeCleanly) {
  // Hostile bytes: each mutated journal is refused with a reason, by the
  // reader or by resume_from, or it resumes into a run that lands the whole
  // dataset. Anything else (a crash, a sanitizer report, a run that loses
  // or invents bytes) is a reader bug.
  const CutRun cut;
  const std::string journal = cut.journal(3.0);
  const auto other = split_lines(cut.journal(2.0));
  ASSERT_FALSE(journal.empty());
  ASSERT_FALSE(other.empty());
  SessionConfig cfg;
  cfg.max_sim_time = 600.0;  // the drop process otherwise runs for a week

  Rng rng(20260611);
  int refused = 0;
  int resumed = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string text = journal;
    auto lines = split_lines(text);
    const auto pick = [&rng](std::size_t n) {
      return static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    };
    switch (rng.uniform_int(0, 5)) {
      case 0:  // flip a byte
        text[pick(text.size())] ^= static_cast<char>(rng.uniform_int(1, 255));
        break;
      case 1:  // delete a byte
        text.erase(pick(text.size()), 1);
        break;
      case 2: {  // duplicate a line
        const std::size_t i = pick(lines.size());
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), lines[i]);
        text = join_lines(lines);
        break;
      }
      case 3:  // drop a line
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(pick(lines.size())));
        text = join_lines(lines);
        break;
      case 4:  // truncate
        text.resize(pick(text.size()));
        break;
      default:  // splice in a line of a journal taken a second earlier
        lines[pick(lines.size())] = other[pick(other.size())];
        text = join_lines(lines);
        break;
    }
    SCOPED_TRACE("trial " + std::to_string(trial) + ":\n" + text);
    std::istringstream in(text);
    std::string why;
    const auto parsed = read_checkpoint(in, &why);
    if (!parsed) {
      EXPECT_FALSE(why.empty());
      ++refused;
      continue;
    }
    TransferSession s(cut.env, cut.ds, cut.plan, cfg);
    s.set_fault_plan(cut.faults);
    if (!s.resume_from(*parsed, &why)) {
      EXPECT_FALSE(why.empty());
      ++refused;
      continue;
    }
    const auto r = s.run();
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.goodput_bytes(), cut.ds.total_bytes());
    ++resumed;
  }
  // Both outcomes are common, so neither half of the check is vacuous.
  EXPECT_GT(refused, 100);
  EXPECT_GT(resumed, 100);
}

TEST(Checkpoint, ResumeRefusesAForeignDataset) {
  const auto env = small_env();
  const auto ds = dataset_of({40 * kMB, 40 * kMB, 40 * kMB});
  const auto aborted = interrupted_run(env, ds, one_chunk_plan(ds, 2), 0.5);
  ASSERT_TRUE(aborted.checkpoint.has_value());

  const auto other = dataset_of({40 * kMB, 40 * kMB, 41 * kMB});
  TransferSession s(env, other, one_chunk_plan(other, 2), {});
  std::string err;
  EXPECT_FALSE(s.resume_from(*aborted.checkpoint, &err));
  EXPECT_NE(err.find("fingerprint"), std::string::npos) << err;
}

TEST(Checkpoint, FingerprintIsOrderAndSizeSensitive) {
  const auto a = dataset_of({1 * kMB, 2 * kMB});
  const auto b = dataset_of({2 * kMB, 1 * kMB});
  const auto c = dataset_of({1 * kMB, 2 * kMB, 0});
  EXPECT_NE(dataset_fingerprint(a), dataset_fingerprint(b));
  EXPECT_NE(dataset_fingerprint(a), dataset_fingerprint(c));
  EXPECT_EQ(dataset_fingerprint(a), dataset_fingerprint(dataset_of({1 * kMB, 2 * kMB})));
}

}  // namespace
}  // namespace eadt::proto
