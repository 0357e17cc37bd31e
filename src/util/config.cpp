#include "util/config.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace eadt {
namespace {

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

void set_error(std::string* error, int line, const std::string& reason) {
  if (error != nullptr) {
    *error = "line " + std::to_string(line) + ": " + reason;
  }
}

}  // namespace

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

std::optional<Bytes> parse_size(std::string_view text) {
  const std::string_view t = trim(text);
  if (t.empty()) return std::nullopt;
  std::size_t i = 0;
  while (i < t.size() &&
         (std::isdigit(static_cast<unsigned char>(t[i])) || t[i] == '.' || t[i] == '+')) {
    ++i;
  }
  if (i == 0) return std::nullopt;
  const std::string num(t.substr(0, i));
  char* end = nullptr;
  const double value = std::strtod(num.c_str(), &end);
  if (end == num.c_str() || *end != '\0' || value < 0.0) return std::nullopt;
  const std::string suffix = lower(trim(t.substr(i)));
  double mult = 1.0;
  if (suffix.empty() || suffix == "b") {
    mult = 1.0;
  } else if (suffix == "kb" || suffix == "k" || suffix == "kib") {
    mult = static_cast<double>(kKB);
  } else if (suffix == "mb" || suffix == "m" || suffix == "mib") {
    mult = static_cast<double>(kMB);
  } else if (suffix == "gb" || suffix == "g" || suffix == "gib") {
    mult = static_cast<double>(kGB);
  } else if (suffix == "tb" || suffix == "t" || suffix == "tib") {
    mult = static_cast<double>(kGB) * 1024.0;
  } else {
    return std::nullopt;
  }
  // A byte count past 2^63 has no exact integer form (and llround would
  // leave it unspecified); such a size is malformed input like any other.
  const double bytes = value * mult;
  if (!(bytes < 0x1p63)) return std::nullopt;
  return static_cast<Bytes>(std::llround(bytes));
}

std::optional<Config> Config::parse(std::string_view text, std::string* error) {
  Config cfg;
  std::string current_section;
  int line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    std::string_view line = text.substr(pos, nl == std::string_view::npos
                                                 ? std::string_view::npos
                                                 : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;

    // Strip comments (# or ;), then whitespace.
    const std::size_t comment = line.find_first_of("#;");
    if (comment != std::string_view::npos) line = line.substr(0, comment);
    line = trim(line);
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']' || line.size() < 3) {
        set_error(error, line_no, "malformed section header");
        return std::nullopt;
      }
      current_section = std::string(trim(line.substr(1, line.size() - 2)));
      if (current_section.empty()) {
        set_error(error, line_no, "empty section name");
        return std::nullopt;
      }
      cfg.data_[current_section];  // allow empty sections
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      set_error(error, line_no, "expected 'key = value'");
      return std::nullopt;
    }
    const std::string key(trim(line.substr(0, eq)));
    const std::string value(trim(line.substr(eq + 1)));
    if (key.empty()) {
      set_error(error, line_no, "empty key");
      return std::nullopt;
    }
    if (current_section.empty()) {
      set_error(error, line_no, "key outside any [section]");
      return std::nullopt;
    }
    cfg.data_[current_section][key] = value;
  }
  return cfg;
}

std::optional<Config> Config::load(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse(ss.str(), error);
}

bool Config::has_section(std::string_view section) const {
  return data_.find(section) != data_.end();
}

bool Config::has(std::string_view section, std::string_view key) const {
  return get(section, key).has_value();
}

std::optional<std::string> Config::get(std::string_view section,
                                       std::string_view key) const {
  const auto sit = data_.find(section);
  if (sit == data_.end()) return std::nullopt;
  const auto kit = sit->second.find(std::string(key));
  if (kit == sit->second.end()) return std::nullopt;
  return kit->second;
}

std::string Config::get_string(std::string_view section, std::string_view key,
                               std::string fallback) const {
  auto v = get(section, key);
  return v ? *v : std::move(fallback);
}

double Config::get_double(std::string_view section, std::string_view key,
                          double fallback) const {
  const auto v = get(section, key);
  if (!v) return fallback;
  char* end = nullptr;
  const double d = std::strtod(v->c_str(), &end);
  return end != v->c_str() && trim(std::string_view(end)).empty() ? d : fallback;
}

int Config::get_int(std::string_view section, std::string_view key, int fallback) const {
  const double d = get_double(section, key, static_cast<double>(fallback));
  return static_cast<int>(std::llround(d));
}

bool Config::get_bool(std::string_view section, std::string_view key,
                      bool fallback) const {
  const auto v = get(section, key);
  if (!v) return fallback;
  const std::string s = lower(trim(*v));
  if (s == "true" || s == "yes" || s == "on" || s == "1") return true;
  if (s == "false" || s == "no" || s == "off" || s == "0") return false;
  return fallback;
}

Bytes Config::get_size(std::string_view section, std::string_view key,
                       Bytes fallback) const {
  const auto v = get(section, key);
  if (!v) return fallback;
  const auto parsed = parse_size(*v);
  return parsed ? *parsed : fallback;
}

std::vector<std::string> Config::get_list(std::string_view section,
                                          std::string_view key) const {
  std::vector<std::string> items;
  const auto v = get(section, key);
  if (!v) return items;
  std::size_t pos = 0;
  while (pos <= v->size()) {
    const std::size_t comma = v->find(',', pos);
    const std::string_view item =
        trim(std::string_view(*v).substr(pos, comma == std::string::npos
                                                  ? std::string::npos
                                                  : comma - pos));
    if (!item.empty()) items.emplace_back(item);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return items;
}

std::vector<std::string> Config::sections() const {
  std::vector<std::string> out;
  out.reserve(data_.size());
  for (const auto& [name, _] : data_) out.push_back(name);
  return out;
}

std::vector<std::string> Config::keys(std::string_view section) const {
  std::vector<std::string> out;
  const auto sit = data_.find(section);
  if (sit == data_.end()) return out;
  out.reserve(sit->second.size());
  for (const auto& [key, _] : sit->second) out.push_back(key);
  return out;
}

}  // namespace eadt
