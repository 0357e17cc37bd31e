// Checkpoint/resume journal for the transfer engine.
//
// A TransferCheckpoint is a durable snapshot of everything a transfer needs
// to continue after an interruption: which files landed completely, the
// durable byte offset of every partially moved file (the journal doubles as
// a GridFTP restart-marker store), the wire/energy/fault ledgers so far, and
// the mid-stream state of every RNG so a resumed run continues its stochastic
// history instead of replaying it.
//
// The snapshot is deliberately *plan-agnostic*: progress is keyed by file id,
// not by chunk or channel, so a resumed session may run a different plan —
// fewer channels, or a different algorithm's chunking — over the residual
// dataset. That is what lets exp::Scheduler's degradation ladder step a
// struggling job down to a safer operating point, and move it to another
// path, without losing landed bytes.
// (Channel/chunk assignments at capture time are recorded for observability,
// but a resume re-opens connections from scratch, as a real client would.)
//
// Serialization is a line-based `key value...` text format; doubles are
// written as C99 hex-floats so a write/read round trip is bit-exact.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "proto/dataset.hpp"
#include "proto/faults.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace eadt::proto {

/// Durable progress of one partially transferred file.
struct FileCursor {
  std::uint32_t file_id = 0;
  Bytes delivered = 0;  ///< bytes durably landed (the restart-marker offset)
};

/// One server's energy ledger at capture time.
struct ServerLedgerEntry {
  std::string name;
  Joules joules = 0.0;
  Seconds active_time = 0.0;
};

struct TransferCheckpoint {
  /// Bumped when the serialized layout changes; readers reject other versions.
  static constexpr int kFormatVersion = 1;

  Seconds taken_at = 0.0;  ///< absolute transfer time (prior resumed legs included)
  /// Fingerprint of the dataset (file count + sizes); resume_from refuses a
  /// checkpoint taken against different data.
  std::uint64_t dataset_fingerprint = 0;
  /// Which PathSet entry the capturing leg ran on (0 = primary). Identity
  /// only: resume_from does not check it, because cross-path resume between
  /// the same endpoints is exactly what failover does. Serialized as an
  /// optional `path` line, omitted when 0, so single-path journals are
  /// byte-identical to format v1 readers and goldens.
  int path_id = 0;
  Bytes wire_bytes = 0;  ///< wire bytes moved so far (retransmissions included)
  Joules end_system_energy = 0.0;
  Joules network_energy = 0.0;
  FaultStats faults;
  int quarantined_channels = 0;
  std::vector<std::uint32_t> completed;  ///< fully landed file ids, ascending
  std::vector<FileCursor> partial;       ///< ascending by file_id
  /// Chunk assignment of each open channel at capture time (observability
  /// only; a resume re-opens channels from the active plan).
  std::vector<int> channel_chunks;
  std::vector<ServerLedgerEntry> source_servers, destination_servers;
  RngState jitter_rng{}, victim_rng{}, backoff_rng{}, checksum_rng{};

  /// Unique bytes durably delivered at capture time (needs the dataset for
  /// completed files' sizes).
  [[nodiscard]] Bytes delivered_bytes(const Dataset& dataset) const;
};

/// Order-sensitive hash of the dataset's file sizes.
[[nodiscard]] std::uint64_t dataset_fingerprint(const Dataset& dataset) noexcept;

/// Serialize to the journal text format (deterministic, bit-exact doubles).
void write_checkpoint(std::ostream& os, const TransferCheckpoint& ckpt);

/// Parse a journal written by write_checkpoint. Returns nullopt on malformed
/// or version-mismatched input, with a "line N: reason" message in *error.
[[nodiscard]] std::optional<TransferCheckpoint> read_checkpoint(
    std::istream& is, std::string* error = nullptr);

}  // namespace eadt::proto
