#include "proto/checkpoint.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <sstream>

namespace eadt::proto {
namespace {

// Doubles round-trip bit-exactly through C99 hex-floats (%a / strtod);
// iostream's decimal formatting would lose the last ulp.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

struct Parser {
  std::istream& is;
  std::string* error;
  int line_no = 0;
  std::string line;
  std::istringstream fields;
  bool failed = false;
  bool held = false;  ///< current `line` was peeked by accept() and not consumed

  bool next_line() {
    if (held) {
      held = false;
      fields.clear();
      fields.str(line);
      return true;
    }
    while (std::getline(is, line)) {
      ++line_no;
      if (!line.empty() && line[0] != '#') {
        fields.clear();
        fields.str(line);
        return true;
      }
    }
    return false;
  }

  void fail(const std::string& reason) {
    if (!failed && error != nullptr) {
      *error = "line " + std::to_string(line_no) + ": " + reason;
    }
    failed = true;
  }

  /// Advance to the next line and check its leading key.
  bool expect(const char* key) {
    if (failed) return false;
    if (!next_line()) {
      fail(std::string("expected '") + key + "', got end of input");
      return false;
    }
    std::string got;
    fields >> got;
    if (got != key) {
      fail(std::string("expected '") + key + "', got '" + got + "'");
      return false;
    }
    return true;
  }

  /// Consume the next line iff its leading key matches; otherwise hold the
  /// line for the following expect()/accept(). Lets readers skip optional
  /// keys so old journals (which omit them) still parse.
  bool accept(const char* key) {
    if (failed) return false;
    if (!next_line()) return false;
    std::string got;
    fields >> got;
    if (got != key) {
      held = true;
      return false;
    }
    return true;
  }

  double read_double() {
    std::string tok;
    fields >> tok;
    if (tok.empty()) {
      fail("missing numeric field");
      return 0.0;
    }
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      fail("malformed number '" + tok + "'");
      return 0.0;
    }
    return v;
  }

  std::uint64_t read_u64() {
    std::uint64_t v = 0;
    if (!(fields >> v)) {
      fail("missing integer field");
      return 0;
    }
    return v;
  }

  std::int64_t read_i64() {
    std::int64_t v = 0;
    if (!(fields >> v)) {
      fail("missing integer field");
      return 0;
    }
    return v;
  }

  RngState read_rng() {
    RngState s{};
    for (auto& w : s) w = read_u64();
    return s;
  }
};

void write_rng(std::ostream& os, const char* key, const RngState& s) {
  os << key;
  for (const auto w : s) os << ' ' << w;
  os << '\n';
}

void write_ledgers(std::ostream& os, const char* key,
                   const std::vector<ServerEnergy>& servers) {
  os << key << ' ' << servers.size() << '\n';
  for (const auto& s : servers) {
    // Names come from ServerSpec and contain no whitespace; written last so a
    // parser could tolerate spaces if that ever changes.
    os << "  " << fmt_double(s.joules) << ' ' << fmt_double(s.active_time) << ' '
       << s.name << '\n';
  }
}

std::vector<ServerEnergy> read_ledgers(Parser& p, const char* key) {
  std::vector<ServerEnergy> out;
  if (!p.expect(key)) return out;
  const std::uint64_t n = p.read_u64();
  for (std::uint64_t i = 0; i < n && !p.failed; ++i) {
    if (!p.next_line()) {
      p.fail("truncated server ledger");
      break;
    }
    ServerEnergy e;
    e.joules = p.read_double();
    e.active_time = p.read_double();
    p.fields >> std::ws;
    std::getline(p.fields, e.name);
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace

Bytes TransferCheckpoint::delivered_bytes(const Dataset& dataset) const {
  Bytes total = 0;
  for (const std::uint32_t id : completed) {
    if (id < dataset.files.size()) total += dataset.files[id].size;
  }
  for (const auto& c : partial) total += c.delivered;
  return total;
}

std::uint64_t dataset_fingerprint(const Dataset& dataset) noexcept {
  // FNV-1a over the little-endian size stream, seeded with the file count so
  // e.g. {a+b} and {a, b} with a+b bytes do not collide trivially.
  std::uint64_t h = 0xCBF29CE484222325ULL ^ (dataset.files.size() * 0x9E3779B97F4A7C15ULL);
  for (const auto& f : dataset.files) {
    Bytes s = f.size;
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<unsigned char>(s & 0xFF);
      h *= 0x100000001B3ULL;
      s >>= 8;
    }
  }
  return h;
}

void write_checkpoint(std::ostream& os, const TransferCheckpoint& ckpt) {
  os << "eadt-checkpoint " << TransferCheckpoint::kFormatVersion << '\n'
     << "taken_at " << fmt_double(ckpt.taken_at) << '\n'
     << "dataset " << ckpt.dataset_fingerprint << '\n';
  // Optional: omitted when 0 so single-path journals keep the v1 byte layout.
  if (ckpt.path_id != 0) os << "path " << ckpt.path_id << '\n';
  os << "wire_bytes " << ckpt.wire_bytes << '\n'
     << "end_system_energy " << fmt_double(ckpt.end_system_energy) << '\n'
     << "network_energy " << fmt_double(ckpt.network_energy) << '\n';
  const auto& f = ckpt.faults;
  os << "faults " << f.retries << ' ' << f.channel_drops << ' ' << f.checksum_failures
     << ' ' << f.server_outages << ' ' << f.quarantined_channels << ' ' << f.wasted_bytes
     << ' ' << fmt_double(f.wasted_joules) << ' ' << fmt_double(f.channel_downtime)
     << ' ' << fmt_double(f.server_downtime) << '\n';
  os << "quarantined " << ckpt.quarantined_channels << '\n';
  os << "completed " << ckpt.completed.size();
  for (const auto id : ckpt.completed) os << ' ' << id;
  os << '\n';
  os << "partial " << ckpt.partial.size() << '\n';
  for (const auto& c : ckpt.partial) {
    os << "  " << c.file_id << ' ' << c.delivered << '\n';
  }
  os << "channels " << ckpt.channel_chunks.size();
  for (const auto c : ckpt.channel_chunks) os << ' ' << c;
  os << '\n';
  write_ledgers(os, "source_servers", ckpt.source_servers);
  write_ledgers(os, "destination_servers", ckpt.destination_servers);
  write_rng(os, "rng_jitter", ckpt.jitter_rng);
  write_rng(os, "rng_victim", ckpt.victim_rng);
  write_rng(os, "rng_backoff", ckpt.backoff_rng);
  write_rng(os, "rng_checksum", ckpt.checksum_rng);
}

std::optional<TransferCheckpoint> read_checkpoint(std::istream& is, std::string* error) {
  Parser p{is, error, 0, {}, {}, false};
  TransferCheckpoint c;
  if (!p.expect("eadt-checkpoint")) return std::nullopt;
  if (const auto v = p.read_i64(); v != TransferCheckpoint::kFormatVersion) {
    p.fail("unsupported checkpoint version " + std::to_string(v));
    return std::nullopt;
  }
  if (p.expect("taken_at")) c.taken_at = p.read_double();
  if (p.expect("dataset")) c.dataset_fingerprint = p.read_u64();
  if (p.accept("path")) c.path_id = static_cast<int>(p.read_i64());
  if (p.expect("wire_bytes")) c.wire_bytes = p.read_u64();
  if (p.expect("end_system_energy")) c.end_system_energy = p.read_double();
  if (p.expect("network_energy")) c.network_energy = p.read_double();
  if (p.expect("faults")) {
    auto& f = c.faults;
    f.retries = p.read_i64();
    f.channel_drops = p.read_i64();
    f.checksum_failures = p.read_i64();
    f.server_outages = p.read_i64();
    f.quarantined_channels = p.read_i64();
    f.wasted_bytes = p.read_u64();
    f.wasted_joules = p.read_double();
    f.channel_downtime = p.read_double();
    f.server_downtime = p.read_double();
  }
  if (p.expect("quarantined")) c.quarantined_channels = static_cast<int>(p.read_i64());
  if (p.expect("completed")) {
    const std::uint64_t n = p.read_u64();
    for (std::uint64_t i = 0; i < n && !p.failed; ++i) {
      c.completed.push_back(static_cast<std::uint32_t>(p.read_u64()));
    }
  }
  if (p.expect("partial")) {
    const std::uint64_t n = p.read_u64();
    for (std::uint64_t i = 0; i < n && !p.failed; ++i) {
      if (!p.next_line()) {
        p.fail("truncated partial-file list");
        break;
      }
      FileCursor cur;
      cur.file_id = static_cast<std::uint32_t>(p.read_u64());
      cur.delivered = p.read_u64();
      c.partial.push_back(cur);
    }
  }
  if (p.expect("channels")) {
    const std::uint64_t n = p.read_u64();
    for (std::uint64_t i = 0; i < n && !p.failed; ++i) {
      c.channel_chunks.push_back(static_cast<int>(p.read_i64()));
    }
  }
  c.source_servers = read_ledgers(p, "source_servers");
  c.destination_servers = read_ledgers(p, "destination_servers");
  if (p.expect("rng_jitter")) c.jitter_rng = p.read_rng();
  if (p.expect("rng_victim")) c.victim_rng = p.read_rng();
  if (p.expect("rng_backoff")) c.backoff_rng = p.read_rng();
  if (p.expect("rng_checksum")) c.checksum_rng = p.read_rng();
  if (p.failed) return std::nullopt;
  return c;
}

}  // namespace eadt::proto
