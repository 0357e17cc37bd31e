// OpenMetrics exposition of the metrics registry, plus a scrape listener.
//
// The paper's energy/SLA tradeoffs are steered from *live* telemetry; until
// now the MetricsRegistry could only be snapshotted at exit. This header is
// the live surface:
//
//   * write_openmetrics() renders any MetricsRegistry snapshot to
//     OpenMetrics 1.0 exposition text — counters as `<family>_total`, gauges
//     verbatim, fixed-bucket histograms as cumulative `_bucket{le=...}` plus
//     `_sum`/`_count`, terminated by `# EOF`. Internal metric names carry
//     dots and arbitrary tenant strings, so every family name is sanitized
//     to the spec charset and the original is preserved losslessly in a
//     `name` label whenever sanitization changed it (which also keeps two
//     hostile names that sanitize identically as distinct series);
//   * MetricsHttpServer is a deliberately minimal single-threaded HTTP/1.0
//     listener serving GET /metrics and /healthz. One accept loop, one
//     request per connection, no keep-alive — a scrape endpoint, not a web
//     server. The hot path is never blocked by a scrape: engine writers
//     mutate pre-resolved atomic handles lock-free, and the scrape thread
//     only takes the registry's structural mutex for the snapshot walk.
//
// Rendering is deterministic: the snapshot is name-sorted per family and
// numbers use the obs exporters' shortest-round-trip convention
// (json_number, util/json.hpp), so two snapshots of equal state render
// byte-identically.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace eadt::obs {

/// Sanitize one metric name into the OpenMetrics charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`: every invalid byte becomes '_', and a leading
/// digit (or an empty name) gains a '_' prefix. Pure function; collisions
/// between distinct inputs are disambiguated by the exporter's `name` label,
/// not here.
[[nodiscard]] std::string openmetrics_name(std::string_view name);

/// Escape a label value per the exposition spec: backslash, double quote and
/// newline get backslash escapes; everything else passes through.
[[nodiscard]] std::string openmetrics_label_escape(std::string_view value);

/// Render a registry snapshot (MetricsRegistry::snapshot()) as OpenMetrics
/// exposition text, `# EOF` terminator included. Families are emitted in
/// snapshot order (counters, gauges, histograms — each name-sorted); a family
/// whose sanitized name collides with an earlier family of a different kind
/// is suffixed with its kind to keep `# TYPE` lines unique.
void write_openmetrics(std::ostream& os, const std::vector<MetricSnapshot>& metrics);

/// The Content-Type a compliant scraper expects for the exposition body.
[[nodiscard]] const char* openmetrics_content_type() noexcept;

/// Minimal scrape endpoint: one background thread, HTTP/1.0, connection per
/// request. GET /metrics renders the provider's snapshot; GET /healthz
/// answers `ok`; anything else is 404. Start() binds immediately so the
/// caller can log the (possibly ephemeral) port before any scrape lands.
class MetricsHttpServer {
 public:
  using SnapshotFn = std::function<std::vector<MetricSnapshot>()>;

  /// `port` 0 binds an ephemeral port (see port()). `snapshot` is called on
  /// the scrape thread for every /metrics request and must be safe to call
  /// concurrently with engine writers — MetricsRegistry::snapshot() is.
  MetricsHttpServer(int port, SnapshotFn snapshot);
  ~MetricsHttpServer();

  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  /// The bound port, or -1 when the listener failed to start (the failure
  /// reason is in error(); the run proceeds unscraped rather than dying).
  [[nodiscard]] int port() const noexcept { return port_; }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] bool running() const noexcept { return port_ >= 0; }

  /// Scrapes served so far (/metrics and /healthz both count).
  [[nodiscard]] std::uint64_t requests() const noexcept {
    return requests_.load(std::memory_order_relaxed);
  }

  /// Close the socket and join the scrape thread. Idempotent; the destructor
  /// calls it.
  void stop();

 private:
  void serve();
  void handle(int client);

  SnapshotFn snapshot_;
  int listen_fd_ = -1;
  int port_ = -1;
  std::string error_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::thread thread_;
};

}  // namespace eadt::obs
