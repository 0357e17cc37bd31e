// JSON string escaping, shared by every exporter in the tree, and the number
// and indent helpers the obs exporters share.
//
// The repo hand-writes its JSON (bench records, traces, metrics) instead of
// pulling in a serialization library, which means every writer must agree on
// one escaping rule. This is that rule: RFC 8259 — `"` and `\` escaped, the
// two-character forms for the common control characters, `\u00XX` for the
// rest. Output is plain ASCII-transparent: bytes >= 0x20 other than the two
// specials pass through untouched, so UTF-8 payloads survive unmodified.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

namespace eadt {

/// Escape `s` for embedding inside a JSON string literal (no surrounding
/// quotes). Returns the input unchanged when nothing needs escaping.
[[nodiscard]] std::string json_escape(std::string_view s);

/// Write `s` to `os` as a complete JSON string literal, quotes included.
void write_json_string(std::ostream& os, std::string_view s);

/// Shortest decimal that reads back as `v` (the obs exporters' convention:
/// equal doubles always render to equal text); "0" for NaN and infinities.
/// The bench-record writer (exp::write_bench_json) prints max_digits10
/// instead.
[[nodiscard]] std::string json_number(double v);

/// `n` spaces.
[[nodiscard]] std::string json_indent(int n);

}  // namespace eadt
