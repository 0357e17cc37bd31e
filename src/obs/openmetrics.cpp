#include "obs/openmetrics.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <ostream>
#include <sstream>
#include <utility>

#include "util/json.hpp"

namespace eadt::obs {
namespace {

[[nodiscard]] bool valid_start(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
}

[[nodiscard]] bool valid_body(char c) noexcept {
  return valid_start(c) || (c >= '0' && c <= '9');
}

[[nodiscard]] const char* kind_suffix(MetricSnapshot::Kind kind) noexcept {
  switch (kind) {
    case MetricSnapshot::Kind::kCounter: return "_counter";
    case MetricSnapshot::Kind::kGauge: return "_gauge";
    case MetricSnapshot::Kind::kHistogram: return "_histogram";
  }
  return "_metric";
}

[[nodiscard]] const char* kind_name(MetricSnapshot::Kind kind) noexcept {
  switch (kind) {
    case MetricSnapshot::Kind::kCounter: return "counter";
    case MetricSnapshot::Kind::kGauge: return "gauge";
    case MetricSnapshot::Kind::kHistogram: return "histogram";
  }
  return "untyped";
}

/// One exposition family: a unique sanitized name, its kind, and every
/// snapshot that renders under it (more than one only when hostile names
/// collide after sanitization — each then carries a distinguishing label).
struct Family {
  std::string name;
  MetricSnapshot::Kind kind = MetricSnapshot::Kind::kCounter;
  std::vector<const MetricSnapshot*> members;
};

/// True when sample `m` needs its original name preserved in a label: the
/// family name alone no longer identifies it (sanitization changed it, a
/// collision suffixed the family, or a counter's `_total` was folded).
[[nodiscard]] bool needs_name_label(const Family& family, const MetricSnapshot& m) {
  if (m.name == family.name) return false;
  return !(family.kind == MetricSnapshot::Kind::kCounter &&
           m.name == family.name + "_total");
}

void write_label_block(std::ostream& os, const Family& family, const MetricSnapshot& m,
                       const std::string* le) {
  const bool named = needs_name_label(family, m);
  if (le == nullptr && !named) return;
  os << '{';
  bool first = true;
  if (le != nullptr) {
    os << "le=\"" << *le << '"';
    first = false;
  }
  if (named) {
    os << (first ? "" : ",") << "name=\"" << openmetrics_label_escape(m.name) << '"';
  }
  os << '}';
}

/// The request a line names: an exact `GET <path> HTTP/1.x` match, another
/// well-formed line (404), or a malformed one (400). Well-formed is
/// printable ASCII in three non-empty fields split by single spaces, the
/// last HTTP/1.0 or HTTP/1.1.
enum class Route { kMetrics, kHealthz, kNotFound, kBadRequest };

[[nodiscard]] Route route_of(std::string_view line) noexcept {
  for (const char c : line) {
    if (c < 0x20 || c > 0x7e) return Route::kBadRequest;  // binary or control bytes
  }
  const auto sp1 = line.find(' ');
  const auto sp2 = sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
  if (sp1 == 0 || sp2 == std::string_view::npos || sp2 == sp1 + 1) {
    return Route::kBadRequest;
  }
  const std::string_view version = line.substr(sp2 + 1);
  if (version != "HTTP/1.0" && version != "HTTP/1.1") return Route::kBadRequest;
  const std::string_view request = line.substr(0, sp2);
  if (request == "GET /metrics") return Route::kMetrics;
  if (request == "GET /healthz") return Route::kHealthz;
  return Route::kNotFound;
}

}  // namespace

std::string openmetrics_name(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (const char c : name) out.push_back(valid_body(c) ? c : '_');
  if (out.empty() || !valid_start(out.front())) out.insert(out.begin(), '_');
  return out;
}

std::string openmetrics_label_escape(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

const char* openmetrics_content_type() noexcept {
  return "application/openmetrics-text; version=1.0.0; charset=utf-8";
}

void write_openmetrics(std::ostream& os, const std::vector<MetricSnapshot>& metrics) {
  // Pass 1: group by sanitized family name. Counters fold a trailing
  // `_total` into the family (the spec reserves that suffix for the sample
  // name); a sanitized name already claimed by a *different* kind is
  // suffixed with its own kind so `# TYPE` lines stay unique.
  std::vector<Family> families;
  for (const MetricSnapshot& m : metrics) {
    std::string base = openmetrics_name(m.name);
    if (m.kind == MetricSnapshot::Kind::kCounter && base.size() > 6 &&
        base.ends_with("_total")) {
      base.resize(base.size() - 6);
    }
    Family* home = nullptr;
    while (home == nullptr) {
      Family* taken = nullptr;
      for (Family& f : families) {
        if (f.name == base) {
          taken = &f;
          break;
        }
      }
      if (taken == nullptr) {
        families.push_back({std::move(base), m.kind, {}});
        home = &families.back();
      } else if (taken->kind == m.kind) {
        home = taken;
      } else {
        base += kind_suffix(m.kind);
      }
    }
    home->members.push_back(&m);
  }

  // Pass 2: exposition text, one TYPE line per family, cumulative histogram
  // buckets, `# EOF` terminator.
  for (const Family& family : families) {
    os << "# TYPE " << family.name << ' ' << kind_name(family.kind) << '\n';
    for (const MetricSnapshot* mp : family.members) {
      const MetricSnapshot& m = *mp;
      switch (family.kind) {
        case MetricSnapshot::Kind::kCounter:
          os << family.name << "_total";
          write_label_block(os, family, m, nullptr);
          os << ' ' << m.count << '\n';
          break;
        case MetricSnapshot::Kind::kGauge:
          os << family.name;
          write_label_block(os, family, m, nullptr);
          os << ' ' << json_number(m.value) << '\n';
          break;
        case MetricSnapshot::Kind::kHistogram: {
          std::uint64_t cum = 0;
          for (std::size_t i = 0; i < m.bounds.size(); ++i) {
            cum += i < m.buckets.size() ? m.buckets[i] : 0;
            const std::string le = json_number(m.bounds[i]);
            os << family.name << "_bucket";
            write_label_block(os, family, m, &le);
            os << ' ' << cum << '\n';
          }
          static const std::string kInf = "+Inf";
          os << family.name << "_bucket";
          write_label_block(os, family, m, &kInf);
          os << ' ' << m.count << '\n';
          os << family.name << "_sum";
          write_label_block(os, family, m, nullptr);
          os << ' ' << json_number(m.value) << '\n';
          os << family.name << "_count";
          write_label_block(os, family, m, nullptr);
          os << ' ' << m.count << '\n';
          break;
        }
      }
    }
  }
  os << "# EOF\n";
}

MetricsHttpServer::MetricsHttpServer(int port, SnapshotFn snapshot)
    : snapshot_(std::move(snapshot)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    error_ = std::string("socket: ") + std::strerror(errno);
    return;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listen_fd_, 16) < 0) {
    error_ = std::string("bind/listen: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = static_cast<int>(ntohs(bound.sin_port));
  }
  thread_ = std::thread([this] { serve(); });
}

MetricsHttpServer::~MetricsHttpServer() { stop(); }

void MetricsHttpServer::stop() {
  if (listen_fd_ < 0) return;
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void MetricsHttpServer::serve() {
  // Poll with a short timeout so stop() never waits on a blocked accept;
  // a scrape endpoint sees requests every few seconds, not continuously.
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/50);
    if (ready <= 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    handle(client);
    ::close(client);
  }
}

void MetricsHttpServer::handle(int client) {
  // Read the request line, LF-terminated, within the read deadline and the
  // size cap. A client that sends nothing is closed unanswered at the
  // deadline, so it holds the one serve thread for at most that long.
  char buf[kMaxRequestLine];
  std::size_t have = 0;
  const auto deadline = std::chrono::steady_clock::now() + kReadDeadline;
  Route route = Route::kBadRequest;
  for (;;) {
    if (const void* lf = std::memchr(buf, '\n', have)) {
      auto len = static_cast<std::size_t>(static_cast<const char*>(lf) - buf);
      if (len > 0 && buf[len - 1] == '\r') --len;
      route = route_of({buf, len});
      break;
    }
    if (have == sizeof(buf)) break;  // oversized: 400
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0 || stop_.load(std::memory_order_relaxed)) return;
    pollfd pfd{client, POLLIN, 0};
    // Short slices, so that stop() is honoured mid-read.
    if (::poll(&pfd, 1, static_cast<int>(std::min<long long>(left.count(), 50))) <= 0) {
      continue;
    }
    const ssize_t n = ::recv(client, buf + have, sizeof(buf) - have, 0);
    if (n < 0) return;
    if (n == 0) {  // the client closed: a partial line is malformed
      if (have == 0) return;
      break;
    }
    have += static_cast<std::size_t>(n);
  }

  std::string body;
  std::string content_type = "text/plain; charset=utf-8";
  const char* status = "200 OK";
  switch (route) {
    case Route::kMetrics: {
      std::ostringstream os;
      write_openmetrics(os, snapshot_());
      body = os.str();
      content_type = openmetrics_content_type();
      break;
    }
    case Route::kHealthz:
      body = "ok\n";
      break;
    case Route::kNotFound:
      status = "404 Not Found";
      body = "not found\n";
      break;
    case Route::kBadRequest:
      status = "400 Bad Request";
      body = "bad request\n";
      break;
  }
  requests_.fetch_add(1, std::memory_order_relaxed);

  std::string response = "HTTP/1.0 ";
  response += status;
  response += "\r\nContent-Type: ";
  response += content_type;
  response += "\r\nContent-Length: ";
  response += std::to_string(body.size());
  response += "\r\nConnection: close\r\n\r\n";
  response += body;
  std::size_t sent = 0;
  while (sent < response.size()) {
    const ssize_t w = ::send(client, response.data() + sent, response.size() - sent,
                             MSG_NOSIGNAL);
    if (w <= 0) return;
    sent += static_cast<std::size_t>(w);
  }
}

}  // namespace eadt::obs
