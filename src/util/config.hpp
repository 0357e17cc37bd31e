// Minimal INI-style configuration, for user-defined testbeds and scenarios.
//
// Grammar:
//   [section]            ; sections group keys
//   key = value          ; values keep internal spaces, trimmed at the ends
//   # comment, ; comment ; full-line or trailing comments
//
// Keys are unique per section (later duplicates overwrite). Values are
// fetched typed, with defaults: get_double / get_int / get_bool / get_string
// / get_size (accepts "32MB", "1.5GB", "300kb" style suffixes, binary
// multiples) / get_list (comma-separated).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.hpp"

namespace eadt {

class Config {
 public:
  /// Parse from text. On failure returns nullopt and fills *error with a
  /// "line N: reason" message (if error != nullptr).
  [[nodiscard]] static std::optional<Config> parse(std::string_view text,
                                                   std::string* error = nullptr);
  /// Parse from a file.
  [[nodiscard]] static std::optional<Config> load(const std::string& path,
                                                  std::string* error = nullptr);

  [[nodiscard]] bool has_section(std::string_view section) const;
  [[nodiscard]] bool has(std::string_view section, std::string_view key) const;

  [[nodiscard]] std::optional<std::string> get(std::string_view section,
                                               std::string_view key) const;
  [[nodiscard]] std::string get_string(std::string_view section, std::string_view key,
                                       std::string fallback) const;
  [[nodiscard]] double get_double(std::string_view section, std::string_view key,
                                  double fallback) const;
  [[nodiscard]] int get_int(std::string_view section, std::string_view key,
                            int fallback) const;
  /// true/yes/on/1 vs false/no/off/0 (case-insensitive).
  [[nodiscard]] bool get_bool(std::string_view section, std::string_view key,
                              bool fallback) const;
  /// Byte size with optional B/KB/MB/GB/TB suffix (binary multiples).
  [[nodiscard]] Bytes get_size(std::string_view section, std::string_view key,
                               Bytes fallback) const;
  /// Comma-separated list, items trimmed; empty items dropped.
  [[nodiscard]] std::vector<std::string> get_list(std::string_view section,
                                                  std::string_view key) const;

  [[nodiscard]] std::vector<std::string> sections() const;
  [[nodiscard]] std::vector<std::string> keys(std::string_view section) const;

 private:
  std::map<std::string, std::map<std::string, std::string>, std::less<>> data_;
};

/// "32MB" -> bytes; suffix optional (bare number = bytes); fractional values
/// allowed ("1.5GB"). Returns nullopt on malformed input, a size of 2^63
/// bytes or more included.
[[nodiscard]] std::optional<Bytes> parse_size(std::string_view text);

/// Trim ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view s);

}  // namespace eadt
