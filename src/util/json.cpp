#include "util/json.hpp"

#include <array>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace eadt {
namespace {

/// The two-character escape for `c`, or 0 when `c` needs no / a \u escape.
constexpr char short_escape(char c) noexcept {
  switch (c) {
    case '"': return '"';
    case '\\': return '\\';
    case '\b': return 'b';
    case '\f': return 'f';
    case '\n': return 'n';
    case '\r': return 'r';
    case '\t': return 't';
    default: return 0;
  }
}

constexpr bool needs_escape(char c) noexcept {
  return static_cast<unsigned char>(c) < 0x20 || c == '"' || c == '\\';
}

void append_escaped(std::string& out, char c) {
  if (const char e = short_escape(c)) {
    out += '\\';
    out += e;
  } else {
    std::array<char, 8> buf{};
    std::snprintf(buf.data(), buf.size(), "\\u%04x", static_cast<unsigned char>(c));
    out += buf.data();
  }
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::size_t clean = 0;
  while (clean < s.size() && !needs_escape(s[clean])) ++clean;
  if (clean == s.size()) return std::string(s);

  std::string out;
  out.reserve(s.size() + 8);
  out.append(s.substr(0, clean));
  for (std::size_t i = clean; i < s.size(); ++i) {
    if (needs_escape(s[i])) {
      append_escaped(out, s[i]);
    } else {
      out += s[i];
    }
  }
  return out;
}

void write_json_string(std::ostream& os, std::string_view s) {
  os << '"' << json_escape(s) << '"';
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  for (int precision = 1; precision <= 17; ++precision) {
    std::ostringstream os;
    os << std::setprecision(precision) << v;
    std::istringstream is(os.str());
    double back = 0.0;
    is >> back;
    if (back == v) return os.str();
  }
  return "0";
}

std::string json_indent(int n) { return std::string(static_cast<std::size_t>(n), ' '); }

}  // namespace eadt
