// Build a Testbed from an INI configuration, so users can define their own
// environments without recompiling. Every absent key falls back to a sensible
// default (the XSEDE-like template), so a minimal file is enough:
//
//   [testbed]
//   name = my-wan
//   [path]
//   bandwidth_gbps = 10
//   rtt_ms = 40
//   buffer = 32MB
//   [source]                 ; and [destination]; [endpoint] sets both
//   servers = 4
//   cores = 4
//   disk = parallel          ; or: single
//   disk_gbps = 16
//   [dataset]
//   total = 160GB
//   bands = 3MB:50MB:0.25, 50MB:1GB:0.35, 1GB:20GB:0.40
//   [route]
//   devices = edge-switch, edge-router, edge-router, edge-switch
//
// See `testbed_config_reference()` for the full key list.
#pragma once

#include <optional>
#include <string>

#include "testbeds/testbeds.hpp"
#include "util/config.hpp"

namespace eadt::testbeds {

/// Build from a parsed Config. On failure returns nullopt and fills *error
/// with "<section>: <key> = '<value>': <reason>" for the first value refused:
/// a number that does not parse whole, is not finite or is outside its key's
/// range, an unknown disk or device kind, or a malformed dataset band.
[[nodiscard]] std::optional<Testbed> testbed_from_config(const Config& config,
                                                         std::string* error = nullptr);

/// Convenience: load + parse + build.
[[nodiscard]] std::optional<Testbed> testbed_from_file(const std::string& path,
                                                       std::string* error = nullptr);

/// A complete, commented reference configuration (round-trips through
/// testbed_from_config to the XSEDE defaults).
[[nodiscard]] std::string testbed_config_reference();

}  // namespace eadt::testbeds
