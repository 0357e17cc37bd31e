// Minimal INI-style configuration, for user-defined testbeds and scenarios.
//
// Grammar:
//   [section]            ; sections group keys
//   key = value          ; values keep internal spaces, trimmed at the ends
//   # comment, ; comment ; full-line or trailing comments
//
// Keys are unique per section (later duplicates overwrite). Values are read
// as text: get() (nullopt when absent), get_string (with a default) and
// get_list (comma-separated). Callers that want numbers parse the text
// themselves; parse_size() reads "32MB", "1.5GB", "300kb" style sizes
// (binary multiples).
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
