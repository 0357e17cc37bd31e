// OpenMetrics exposition and scrape listener (src/obs/openmetrics.*).
//
// The exposition half is pinned by a golden: a seeded registry must render to
// exactly the text a compliant scraper expects — TYPE lines, `_total` counter
// samples, cumulative histogram buckets with `le="+Inf"` == `_count`, and the
// `# EOF` terminator. Hostile metric names (label injection attempts, names
// that collide after sanitization, wrong-kind collisions) must stay distinct
// and parseable. The listener half exercises the real socket path: bind an
// ephemeral port, speak HTTP over a raw client socket, and scrape while
// writer threads hammer the registry (the TSan configuration races this);
// silent, split, oversized and binary requests must neither wedge it nor get
// an answer other than 400, 404 or a close.
#include "obs/openmetrics.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace eadt::obs {
namespace {

std::string render(const MetricsRegistry& registry) {
  std::ostringstream os;
  write_openmetrics(os, registry.snapshot());
  return os.str();
}

TEST(OpenMetrics, NameSanitization) {
  EXPECT_EQ(openmetrics_name("session.bytes"), "session_bytes");
  EXPECT_EQ(openmetrics_name("already_fine:ok"), "already_fine:ok");
  EXPECT_EQ(openmetrics_name("9lives"), "_9lives");
  EXPECT_EQ(openmetrics_name(""), "_");
  EXPECT_EQ(openmetrics_name("a b\tc"), "a_b_c");
}

TEST(OpenMetrics, LabelEscaping) {
  EXPECT_EQ(openmetrics_label_escape("plain"), "plain");
  EXPECT_EQ(openmetrics_label_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(openmetrics_label_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(openmetrics_label_escape("a\nb"), "a\\nb");
}

TEST(OpenMetrics, GoldenExposition) {
  MetricsRegistry registry;
  registry.counter("requests_total").add(7);
  registry.counter("session.bytes").add(42);
  registry.gauge("queue.depth").set(3.0);
  auto& h = registry.histogram("lat.us", {1.0, 5.0});
  h.observe(0.5);
  h.observe(3.0);
  h.observe(100.0);

  // Snapshot order is counters, gauges, histograms, each name-sorted. A
  // counter already named `*_total` folds the suffix into the family; every
  // name sanitization changed keeps the original in a `name` label.
  EXPECT_EQ(render(registry),
            "# TYPE requests counter\n"
            "requests_total 7\n"
            "# TYPE session_bytes counter\n"
            "session_bytes_total{name=\"session.bytes\"} 42\n"
            "# TYPE queue_depth gauge\n"
            "queue_depth{name=\"queue.depth\"} 3\n"
            "# TYPE lat_us histogram\n"
            "lat_us_bucket{le=\"1\",name=\"lat.us\"} 1\n"
            "lat_us_bucket{le=\"5\",name=\"lat.us\"} 2\n"
            "lat_us_bucket{le=\"+Inf\",name=\"lat.us\"} 3\n"
            "lat_us_sum{name=\"lat.us\"} 103.5\n"
            "lat_us_count{name=\"lat.us\"} 3\n"
            "# EOF\n");
}

TEST(OpenMetrics, HostileNamesStayDistinctAndEscaped) {
  MetricsRegistry registry;
  // Two distinct internal names that sanitize identically must remain two
  // series: the changed one carries its original name as a label.
  registry.counter("a.b").add(1);
  registry.counter("a_b").add(2);
  // A label-injection attempt is neutralized twice over: the family name is
  // sanitized and the label value is escaped.
  registry.gauge("evil{x=\"1\"}\ny 9").set(1.0);

  const std::string text = render(registry);
  EXPECT_NE(text.find("# TYPE a_b counter\n"), std::string::npos);
  EXPECT_NE(text.find("a_b_total{name=\"a.b\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("a_b_total 2\n"), std::string::npos);
  EXPECT_NE(text.find("evil_x__1___y_9{name=\"evil{x=\\\"1\\\"}\\ny 9\"} 1\n"),
            std::string::npos);
  // Exactly one TYPE line for the collided counter family.
  std::size_t type_lines = 0;
  for (std::size_t pos = 0; (pos = text.find("# TYPE a_b ", pos)) != std::string::npos;
       ++pos) {
    ++type_lines;
  }
  EXPECT_EQ(type_lines, 1u);
}

TEST(OpenMetrics, CrossKindCollisionGetsKindSuffix) {
  MetricsRegistry registry;
  registry.counter("x").add(1);
  registry.gauge("x").set(2.0);
  const std::string text = render(registry);
  EXPECT_NE(text.find("# TYPE x counter\nx_total 1\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE x_gauge gauge\nx_gauge{name=\"x\"} 2\n"),
            std::string::npos);
}

TEST(OpenMetrics, HistogramBucketsAreCumulativeAndConsistent) {
  MetricsRegistry registry;
  auto& h = registry.histogram("d", {10.0, 20.0, 30.0});
  for (int i = 0; i < 25; ++i) h.observe(static_cast<double>(i * 2));  // 0..48

  const auto metrics = registry.snapshot();
  ASSERT_EQ(metrics.size(), 1u);
  const auto& m = metrics[0];
  // Per-bucket (non-cumulative) snapshot: <=10 -> 6, <=20 -> 5, <=30 -> 5,
  // overflow -> 9; the exposition must render the running sum and close with
  // +Inf == _count. Edges use the shortest-round-trip convention shared by
  // every exporter in the tree, so exact tens render as e-notation.
  const std::string text = render(registry);
  EXPECT_NE(text.find("d_bucket{le=\"1e+01\"} 6\n"), std::string::npos);
  EXPECT_NE(text.find("d_bucket{le=\"2e+01\"} 11\n"), std::string::npos);
  EXPECT_NE(text.find("d_bucket{le=\"3e+01\"} 16\n"), std::string::npos);
  EXPECT_NE(text.find("d_bucket{le=\"+Inf\"} 25\n"), std::string::npos);
  EXPECT_NE(text.find("d_count 25\n"), std::string::npos);
  // _sum matches the (fixed-point-quantized) histogram sum exactly.
  std::uint64_t total = 0;
  for (const auto b : m.buckets) total += b;
  EXPECT_EQ(total, m.count);
  EXPECT_NE(text.find("d_sum 6e+02\n"), std::string::npos);
}

TEST(OpenMetrics, EmptyRegistryIsJustTheTerminator) {
  MetricsRegistry registry;
  EXPECT_EQ(render(registry), "# EOF\n");
}

// --- scrape listener -------------------------------------------------------

/// A client socket connected to 127.0.0.1:`port`, or -1. Its reads time
/// out after 5 s, so a wedged server fails a test instead of hanging it.
int connect_to(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Send `parts` in order, pausing between them, then read to EOF. Returns
/// the raw response (status line + headers + body); empty when the server
/// closed without answering.
std::string http_raw(int port, const std::vector<std::string>& parts) {
  const int fd = connect_to(port);
  if (fd < 0) return {};
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    (void)::send(fd, parts[i].data(), parts[i].size(), MSG_NOSIGNAL);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

/// Minimal HTTP/1.0 client: one GET of `path`.
std::string http_get(int port, const std::string& path) {
  return http_raw(port, {"GET " + path + " HTTP/1.0\r\n\r\n"});
}

std::string body_of(const std::string& response) {
  const auto split = response.find("\r\n\r\n");
  return split == std::string::npos ? std::string{} : response.substr(split + 4);
}

TEST(MetricsHttpServer, ServesMetricsHealthzAnd404) {
  MetricsRegistry registry;
  registry.counter("scrapes.seen").add(3);
  MetricsHttpServer server(0, [&registry] { return registry.snapshot(); });
  ASSERT_TRUE(server.running()) << server.error();
  ASSERT_GT(server.port(), 0);

  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find(openmetrics_content_type()), std::string::npos);
  EXPECT_EQ(body_of(metrics),
            "# TYPE scrapes_seen counter\n"
            "scrapes_seen_total{name=\"scrapes.seen\"} 3\n"
            "# EOF\n");

  const std::string healthz = http_get(server.port(), "/healthz");
  EXPECT_NE(healthz.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_EQ(body_of(healthz), "ok\n");

  const std::string missing = http_get(server.port(), "/nope");
  EXPECT_NE(missing.find("HTTP/1.0 404 Not Found"), std::string::npos);

  server.stop();
  EXPECT_EQ(server.requests(), 3u);
}

TEST(MetricsHttpServer, PortCollisionReportsErrorInsteadOfDying) {
  MetricsRegistry registry;
  const auto snap = [&registry] { return registry.snapshot(); };
  MetricsHttpServer first(0, snap);
  ASSERT_TRUE(first.running());
  MetricsHttpServer second(first.port(), snap);
  EXPECT_FALSE(second.running());
  EXPECT_EQ(second.port(), -1);
  EXPECT_FALSE(second.error().empty());
}

TEST(MetricsHttpServer, ScrapeUnderLoadReturnsCoherentExposition) {
  MetricsRegistry registry;
  auto& hist = registry.histogram("load.us", {1.0, 10.0, 100.0});
  std::atomic<bool> stop{false};
  // Writer threads mutate pre-resolved handles lock-free while scrapes
  // snapshot the registry — the contract the TSan job verifies.
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&registry, &hist, &stop, w] {
      auto& c = registry.counter("load.events." + std::to_string(w));
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        c.add(1);
        hist.observe(static_cast<double>(i++ % 128));
        registry.gauge("load.peak").set_max(static_cast<double>(i));
      }
    });
  }

  MetricsHttpServer server(0, [&registry] { return registry.snapshot(); });
  ASSERT_TRUE(server.running()) << server.error();
  for (int scrape = 0; scrape < 16; ++scrape) {
    const std::string body = body_of(http_get(server.port(), "/metrics"));
    ASSERT_FALSE(body.empty());
    // Every mid-run snapshot is a complete, terminated exposition whose
    // histogram line set is internally consistent (one snapshot, not a torn
    // mix of two).
    EXPECT_NE(body.find("# TYPE load_us histogram\n"), std::string::npos);
    EXPECT_TRUE(body.ends_with("# EOF\n"));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : writers) t.join();
  server.stop();
  EXPECT_GE(server.requests(), 16u);
}

TEST(MetricsHttpServer, SilentClientDelaysAScrapeByAtMostTheReadDeadline) {
  using std::chrono::steady_clock;
  MetricsRegistry registry;
  registry.counter("scrapes.seen").add(1);
  MetricsHttpServer server(0, [&registry] { return registry.snapshot(); });
  ASSERT_TRUE(server.running()) << server.error();
  const auto bound = MetricsHttpServer::kReadDeadline + std::chrono::seconds(1);

  // A client that connects and sends nothing holds the serve thread until
  // its deadline, and no longer.
  const int silent = connect_to(server.port());
  ASSERT_GE(silent, 0);
  auto t0 = steady_clock::now();
  const std::string scraped = http_get(server.port(), "/metrics");
  EXPECT_LT(steady_clock::now() - t0, bound);
  EXPECT_NE(scraped.find("HTTP/1.0 200 OK"), std::string::npos);

  // stop() while the serve thread reads a second silent client.
  const int idle = connect_to(server.port());
  ASSERT_GE(idle, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  t0 = steady_clock::now();
  server.stop();
  EXPECT_LT(steady_clock::now() - t0, bound);
  ::close(silent);
  ::close(idle);
  EXPECT_EQ(server.requests(), 1u);
}

TEST(MetricsHttpServer, RequestLinesMatchExactly) {
  MetricsRegistry registry;
  MetricsHttpServer server(0, [&registry] { return registry.snapshot(); });
  ASSERT_TRUE(server.running()) << server.error();
  const int port = server.port();
  const auto status_of = [port](const std::vector<std::string>& parts) {
    const std::string response = http_raw(port, parts);
    return response.substr(0, response.find("\r\n"));
  };
  // A request line split across two sends is read whole.
  EXPECT_EQ(status_of({"GE", "T /metrics HTTP/1.0\r\n\r\n"}), "HTTP/1.0 200 OK");
  EXPECT_EQ(status_of({"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"}), "HTTP/1.0 200 OK");
  EXPECT_EQ(status_of({"GET /metrics HTTP/1.0\n\n"}), "HTTP/1.0 200 OK");
  // Another path is 404, prefixes and suffixes included.
  EXPECT_EQ(status_of({"GET /metricsX HTTP/1.0\r\n\r\n"}), "HTTP/1.0 404 Not Found");
  EXPECT_EQ(status_of({"GET /healthz/ HTTP/1.0\r\n\r\n"}), "HTTP/1.0 404 Not Found");
  EXPECT_EQ(status_of({"POST /metrics HTTP/1.0\r\n\r\n"}), "HTTP/1.0 404 Not Found");
  EXPECT_EQ(status_of({"get /metrics HTTP/1.0\r\n\r\n"}), "HTTP/1.0 404 Not Found");
  // A malformed line is 400.
  for (const char* bad : {"GET /metrics\r\n\r\n", "GET /metrics HTTP/2.0\r\n\r\n",
                          "GET  /metrics HTTP/1.0\r\n", " GET /metrics HTTP/1.0\r\n",
                          "GET /metrics HTTP/1.0 \r\n", "\r\n",
                          "GET /met\trics HTTP/1.0\r\n"}) {
    EXPECT_EQ(status_of({bad}), "HTTP/1.0 400 Bad Request") << bad;
  }
  // A line the client ends by closing is malformed too.
  const int fd = connect_to(port);
  ASSERT_GE(fd, 0);
  (void)::send(fd, "GET /metrics HTTP/1.0", 21, MSG_NOSIGNAL);
  ::shutdown(fd, SHUT_WR);
  char buf[64] = {};
  EXPECT_GT(::recv(fd, buf, sizeof(buf) - 1, 0), 0);
  EXPECT_EQ(std::string(buf).rfind("HTTP/1.0 400 Bad Request", 0), 0u) << buf;
  ::close(fd);
}

TEST(MetricsHttpServer, OversizedAndBinaryRequestsGet400OrACloseAndServingGoesOn) {
  MetricsRegistry registry;
  registry.counter("scrapes.seen").add(1);
  MetricsHttpServer server(0, [&registry] { return registry.snapshot(); });
  ASSERT_TRUE(server.running()) << server.error();
  const int port = server.port();
  const auto refused = [](const std::string& response) {
    return response.empty() || response.rfind("HTTP/1.0 400 Bad Request\r\n", 0) == 0;
  };
  const std::string oversized(4 * MetricsHttpServer::kMaxRequestLine, 'A');
  EXPECT_TRUE(refused(http_raw(port, {oversized})));
  EXPECT_TRUE(refused(http_raw(port, {"GET /" + oversized + " HTTP/1.0\r\n\r\n"})));

  Rng rng(0x5C4A9E);
  for (int i = 0; i < 64; ++i) {
    std::string request(rng.uniform_int(1, 600), '\0');
    for (char& c : request) c = static_cast<char>(rng.uniform_int(0, 255));
    // Half of them end their junk with a line end, half with a close.
    if (i % 2 == 0) request += "\r\n";
    const int fd = connect_to(port);
    ASSERT_GE(fd, 0);
    (void)::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
    ::shutdown(fd, SHUT_WR);
    std::string response;
    char buf[512];
    for (ssize_t n; (n = ::recv(fd, buf, sizeof(buf), 0)) > 0;) {
      response.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    EXPECT_TRUE(refused(response)) << "request " << i << ": " << response;
  }
  const std::string after = http_get(port, "/metrics");
  EXPECT_NE(after.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(body_of(after).find("scrapes_seen_total"), std::string::npos);
}

}  // namespace
}  // namespace eadt::obs
