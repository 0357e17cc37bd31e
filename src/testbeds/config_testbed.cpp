#include "testbeds/config_testbed.hpp"

#include <cmath>
#include <cstdlib>
#include <sstream>

namespace eadt::testbeds {
namespace {

std::optional<net::DeviceKind> device_kind_from_name(std::string_view name) {
  if (name == "enterprise-switch") return net::DeviceKind::kEnterpriseSwitch;
  if (name == "edge-switch") return net::DeviceKind::kEdgeSwitch;
  if (name == "metro-router") return net::DeviceKind::kMetroRouter;
  if (name == "edge-router") return net::DeviceKind::kEdgeRouter;
  return std::nullopt;
}

/// The values one numeric key accepts: [lo, hi], or (lo, hi] when `open_lo`.
struct Range {
  double lo = 0.0;
  double hi = 0.0;
  bool open_lo = false;

  /// False for NaN, which fails every comparison.
  [[nodiscard]] bool holds(double v) const {
    return (open_lo ? v > lo : v >= lo) && v <= hi;
  }
  [[nodiscard]] std::string text() const {
    std::ostringstream os;
    os << (open_lo ? '(' : '[') << lo << ", " << hi << ']';
    return os.str();
  }
};

constexpr Range at_least_zero(double hi) { return {0.0, hi, false}; }
constexpr Range above_zero(double hi) { return {0.0, hi, true}; }
constexpr double kMaxGbps = 1e5;      // 100 Tbps
constexpr double kMaxWatts = 1e5;
constexpr double kMaxFactor = 1e3;    // model slopes and coefficients
constexpr double kMaxBytes = 0x1p50;  // 1 PiB

/// Reads a testbed's keys and keeps the first refusal. A numeric value must
/// parse whole, be finite and lie in its key's range, so hostile text (NaN,
/// infinities, a zero that stalls every channel, negatives, 1e300, garbage)
/// stops the build with an error naming its section and key instead of
/// building a testbed whose transfer cannot move a byte.
class KeyReader {
 public:
  explicit KeyReader(const Config& cfg) : cfg_(cfg) {}

  [[nodiscard]] double real(std::string_view section, std::string_view key,
                            double fallback, Range range) {
    const auto text = cfg_.get(section, key);
    if (!text) return fallback;
    const auto v = number(*text);
    if (!v || !range.holds(*v)) {
      refuse(section, key, *text, "must be a number in " + range.text());
      return fallback;
    }
    return *v;
  }

  /// real(), rounded to the nearest whole number as Config::get_int does.
  [[nodiscard]] int whole(std::string_view section, std::string_view key, int fallback,
                          Range range) {
    return static_cast<int>(std::round(real(section, key, fallback, range)));
  }

  [[nodiscard]] Bytes size(std::string_view section, std::string_view key, Bytes fallback,
                           Range range) {
    const auto text = cfg_.get(section, key);
    if (!text) return fallback;
    const auto v = parse_size(*text);
    if (!v || !range.holds(static_cast<double>(*v))) {
      refuse(section, key, *text, "must be a size in " + range.text() + " bytes");
      return fallback;
    }
    return *v;
  }

  /// Record a refusal of `section`'s `key` (its value `text`) unless one is
  /// already held.
  void refuse(std::string_view section, std::string_view key, std::string_view text,
              const std::string& why) {
    if (!error_.empty()) return;
    error_ = std::string(section) + ": " + std::string(key) + " = '" + std::string(text) +
             "': " + why;
  }

  /// True when nothing was refused; otherwise copies the first refusal into
  /// *error (when non-null).
  [[nodiscard]] bool ok(std::string* error) const {
    if (error_.empty()) return true;
    if (error != nullptr) *error = error_;
    return false;
  }

  /// The whole of `text` as a finite number.
  [[nodiscard]] static std::optional<double> number(const std::string& text) {
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || !trim(end).empty() || !std::isfinite(v)) {
      return std::nullopt;
    }
    return v;
  }

 private:
  const Config& cfg_;
  std::string error_;
};

/// Read one endpoint. `section` is "source" or "destination"; the shared
/// "[endpoint]" section provides cross-side defaults, and the built-in XSEDE
/// DTN is the template underneath.
void fill_endpoint(const Config& cfg, KeyReader& in, const std::string& section,
                   proto::Endpoint& endpoint) {
  auto key = [&](std::string_view k) -> std::string_view {
    // Per-side section wins over the shared [endpoint] section.
    return cfg.has(section, k) ? std::string_view(section) : std::string_view("endpoint");
  };
  const Testbed reference = xsede();
  host::ServerSpec tmpl = reference.env.source.servers.front();
  tmpl.name = cfg.get_string(key("site"), "site", section);
  tmpl.cores = in.whole(key("cores"), "cores", tmpl.cores, {1.0, 4096.0});
  tmpl.cpu_tdp =
      in.real(key("tdp_watts"), "tdp_watts", tmpl.cpu_tdp, above_zero(kMaxWatts));
  tmpl.nic_speed = gbps(in.real(key("nic_gbps"), "nic_gbps", to_gbps(tmpl.nic_speed),
                                above_zero(kMaxGbps)));
  tmpl.mem_total = in.size(key("mem"), "mem", tmpl.mem_total, {1.0, kMaxBytes});

  const std::string disk_kind = cfg.get_string(key("disk"), "disk", "parallel");
  if (disk_kind == "parallel") {
    tmpl.disk.kind = host::DiskKind::kParallelArray;
  } else if (disk_kind == "single") {
    tmpl.disk.kind = host::DiskKind::kSingleDisk;
  } else {
    in.refuse(key("disk"), "disk", disk_kind, "unknown disk kind (parallel or single)");
  }
  tmpl.disk.max_bandwidth = gbps(in.real(key("disk_gbps"), "disk_gbps",
                                         to_gbps(tmpl.disk.max_bandwidth),
                                         above_zero(kMaxGbps)));
  tmpl.disk.ramp =
      in.real(key("disk_ramp"), "disk_ramp", tmpl.disk.ramp, at_least_zero(kMaxFactor));
  tmpl.disk.thrash_alpha = in.real(key("disk_thrash"), "disk_thrash",
                                   tmpl.disk.thrash_alpha, at_least_zero(kMaxFactor));

  tmpl.per_core_goodput = gbps(in.real(key("per_core_gbps"), "per_core_gbps",
                                       to_gbps(tmpl.per_core_goodput),
                                       above_zero(kMaxGbps)));
  // 0 disables the per-stream storage ceiling.
  tmpl.per_stream_disk = gbps(in.real(key("per_stream_gbps"), "per_stream_gbps",
                                      to_gbps(tmpl.per_stream_disk),
                                      at_least_zero(kMaxGbps)));
  tmpl.proc_base_util = in.real(key("proc_base_util"), "proc_base_util",
                                tmpl.proc_base_util, at_least_zero(1.0));
  tmpl.util_per_gbps = in.real(key("util_per_gbps"), "util_per_gbps", tmpl.util_per_gbps,
                               at_least_zero(kMaxFactor));
  tmpl.util_contention = in.real(key("util_contention"), "util_contention",
                                 tmpl.util_contention, at_least_zero(kMaxFactor));
  tmpl.cs_alpha = in.real(key("cs_alpha"), "cs_alpha", tmpl.cs_alpha,
                          at_least_zero(kMaxFactor));
  tmpl.cs_util_per_thread = in.real(key("cs_util_per_thread"), "cs_util_per_thread",
                                    tmpl.cs_util_per_thread, at_least_zero(1.0));

  const int servers =
      in.whole(key("servers"), "servers",
               static_cast<int>(reference.env.source.servers.size()), {1.0, 64.0});
  endpoint.site = tmpl.name;
  endpoint.servers.clear();
  for (int i = 0; i < servers; ++i) {
    host::ServerSpec s = tmpl;
    s.name = tmpl.name + "-dtn" + std::to_string(i);
    endpoint.servers.push_back(std::move(s));
  }

  const std::string psec = "power." + section;
  auto pkey = [&](std::string_view k) -> std::string_view {
    return cfg.has(psec, k) ? std::string_view(psec) : std::string_view("power");
  };
  const Range watts = at_least_zero(kMaxWatts);
  power::PowerCoefficients pc = xsede().env.source.power;
  pc.cpu_scale = in.real(pkey("cpu_scale"), "cpu_scale", pc.cpu_scale, watts);
  pc.mem = in.real(pkey("mem_watts"), "mem_watts", pc.mem, watts);
  pc.disk = in.real(pkey("disk_watts"), "disk_watts", pc.disk, watts);
  pc.nic = in.real(pkey("nic_watts"), "nic_watts", pc.nic, watts);
  pc.active_base =
      in.real(pkey("active_base_watts"), "active_base_watts", pc.active_base, watts);
  endpoint.power = pc;
}

}  // namespace

std::optional<Testbed> testbed_from_config(const Config& cfg, std::string* error) {
  Testbed t = xsede();  // template defaults
  KeyReader in(cfg);

  t.env.name = cfg.get_string("testbed", "name", "custom-testbed");
  t.default_max_channels =
      in.whole("testbed", "max_channels", t.default_max_channels, {1.0, 512.0});
  t.dataset_seed = static_cast<std::uint64_t>(in.whole(
      "testbed", "seed", static_cast<int>(t.dataset_seed), {0.0, 2147483647.0}));

  t.env.path.bandwidth = gbps(in.real("path", "bandwidth_gbps",
                                      to_gbps(t.env.path.bandwidth),
                                      above_zero(kMaxGbps)));
  t.env.path.rtt =
      in.real("path", "rtt_ms", t.env.path.rtt * 1000.0, at_least_zero(1e4)) / 1000.0;
  t.env.path.tcp_buffer = in.size("path", "buffer", t.env.path.tcp_buffer,
                                  {static_cast<double>(kKB), kMaxBytes});
  // IPv4's floor and ceiling; 0 would make the route's packet energy vanish.
  t.env.path.mtu = in.size("path", "mtu", t.env.path.mtu, {68.0, 65535.0});

  t.env.congestion.loss_beta = in.real("congestion", "loss_beta",
                                       t.env.congestion.loss_beta,
                                       at_least_zero(kMaxFactor));
  // A knee of 0 switches the per-stream term off, like a beta of 0.
  t.env.congestion.stream_knee = in.whole("congestion", "stream_knee",
                                          t.env.congestion.stream_knee, {0.0, 1e6});
  t.env.congestion.stream_beta = in.real("congestion", "stream_beta",
                                         t.env.congestion.stream_beta,
                                         at_least_zero(kMaxFactor));

  t.env.warm_fraction =
      in.real("tuning", "warm_fraction", t.env.warm_fraction, at_least_zero(1.0));
  t.env.per_file_cost =
      in.real("tuning", "per_file_cost_s", t.env.per_file_cost, at_least_zero(3600.0));

  fill_endpoint(cfg, in, "source", t.env.source);
  fill_endpoint(cfg, in, "destination", t.env.destination);

  if (cfg.has("route", "devices")) {
    std::vector<net::NetworkDevice> devices;
    int index = 0;
    for (const auto& name : cfg.get_list("route", "devices")) {
      const auto kind = device_kind_from_name(name);
      if (!kind) {
        in.refuse("route", "devices", name, "unknown device kind");
        break;
      }
      devices.push_back({*kind, name + "-" + std::to_string(index++)});
    }
    t.env.route = net::Route(std::move(devices));
  }

  if (cfg.has_section("dataset")) {
    t.dataset_listing_path = cfg.get_string("dataset", "listing", "");
    proto::DatasetRecipe recipe;
    recipe.name = cfg.get_string("dataset", "name", t.env.name + "-dataset");
    recipe.total_bytes =
        in.size("dataset", "total", t.recipe.total_bytes, {1.0, kMaxBytes});
    if (cfg.has("dataset", "bands")) {
      double share_sum = 0.0;
      for (const auto& band_text : cfg.get_list("dataset", "bands")) {
        // "minsize:maxsize:byteshare"
        const std::size_t c1 = band_text.find(':');
        const std::size_t c2 = c1 == std::string::npos ? std::string::npos
                                                       : band_text.find(':', c1 + 1);
        if (c2 == std::string::npos) {
          in.refuse("dataset", "bands", band_text, "a band is min:max:share");
          break;
        }
        const auto min_size = parse_size(band_text.substr(0, c1));
        const auto max_size = parse_size(band_text.substr(c1 + 1, c2 - c1 - 1));
        const auto share = KeyReader::number(band_text.substr(c2 + 1));
        if (!min_size || !max_size || *min_size == 0 || *max_size < *min_size ||
            !share || !above_zero(1.0).holds(*share)) {
          in.refuse("dataset", "bands", band_text,
                    "malformed band (0 < min <= max, share in (0, 1])");
          break;
        }
        recipe.bands.push_back({*min_size, *max_size, *share});
        share_sum += *share;
      }
      if (share_sum < 0.99 || share_sum > 1.01) {
        in.refuse("dataset", "bands", cfg.get_string("dataset", "bands", ""),
                  "band shares must sum to 1");
      }
    } else {
      recipe.bands = t.recipe.bands;
    }
    t.recipe = std::move(recipe);
  }
  if (!in.ok(error)) return std::nullopt;
  return t;
}

std::optional<Testbed> testbed_from_file(const std::string& path, std::string* error) {
  const auto cfg = Config::load(path, error);
  if (!cfg) return std::nullopt;
  return testbed_from_config(*cfg, error);
}

std::string testbed_config_reference() {
  std::ostringstream os;
  const Testbed t = xsede();
  const auto& s = t.env.source.servers.front();
  const auto& pc = t.env.source.power;
  os << "# eadt testbed configuration reference (defaults = XSEDE template)\n"
     << "[testbed]\n"
     << "name = " << t.env.name << "\n"
     << "max_channels = " << t.default_max_channels << "\n"
     << "seed = " << t.dataset_seed << "\n\n"
     << "[path]\n"
     << "bandwidth_gbps = " << to_gbps(t.env.path.bandwidth) << "\n"
     << "rtt_ms = " << t.env.path.rtt * 1000.0 << "\n"
     << "buffer = " << to_mb(t.env.path.tcp_buffer) << "MB\n"
     << "mtu = " << t.env.path.mtu << "\n\n"
     << "[congestion]\n"
     << "loss_beta = " << t.env.congestion.loss_beta << "\n"
     << "stream_knee = " << t.env.congestion.stream_knee << "\n"
     << "stream_beta = " << t.env.congestion.stream_beta << "\n\n"
     << "[tuning]\n"
     << "warm_fraction = " << t.env.warm_fraction << "\n"
     << "per_file_cost_s = " << t.env.per_file_cost << "\n\n"
     << "[endpoint]  ; shared by both sides; [source]/[destination] override\n"
     << "servers = " << t.env.source.servers.size() << "\n"
     << "cores = " << s.cores << "\n"
     << "tdp_watts = " << s.cpu_tdp << "\n"
     << "nic_gbps = " << to_gbps(s.nic_speed) << "\n"
     << "mem = " << to_gb(s.mem_total) << "GB\n"
     << "disk = parallel  ; or: single\n"
     << "disk_gbps = " << to_gbps(s.disk.max_bandwidth) << "\n"
     << "disk_ramp = " << s.disk.ramp << "\n"
     << "disk_thrash = " << s.disk.thrash_alpha << "\n"
     << "per_core_gbps = " << to_gbps(s.per_core_goodput) << "\n"
     << "per_stream_gbps = " << to_gbps(s.per_stream_disk) << "\n"
     << "proc_base_util = " << s.proc_base_util << "\n"
     << "util_per_gbps = " << s.util_per_gbps << "\n"
     << "util_contention = " << s.util_contention << "\n"
     << "cs_alpha = " << s.cs_alpha << "\n"
     << "cs_util_per_thread = " << s.cs_util_per_thread << "\n\n"
     << "[source]\n"
     << "site = stampede\n\n"
     << "[destination]\n"
     << "site = gordon\n\n"
     << "[power]  ; shared; power.source / power.destination override\n"
     << "cpu_scale = " << pc.cpu_scale << "\n"
     << "mem_watts = " << pc.mem << "\n"
     << "disk_watts = " << pc.disk << "\n"
     << "nic_watts = " << pc.nic << "\n"
     << "active_base_watts = " << pc.active_base << "\n\n"
     << "[dataset]\n"
     << "name = " << t.recipe.name << "\n"
     << "total = " << to_gb(t.recipe.total_bytes) << "GB\n"
     << "bands = 3MB:50MB:0.25, 50MB:1GB:0.35, 1GB:20GB:0.40\n\n"
     << "[route]\n"
     << "devices = edge-switch, enterprise-switch, edge-router, edge-router, "
        "enterprise-switch, edge-switch\n";
  return os.str();
}

}  // namespace eadt::testbeds
