// Alternate-route catalogues for path-resilient transfers.
//
// A transfer job is normally pinned to one DTN pair on one route. A PathSet
// lists the routes that *could* carry the same endpoints: the primary the
// testbed was built with, plus backups with their own link characteristics
// (PathSpec), device chain (Route), and tariff zone. The resilience layer
// (exp::HealthMonitor + the scheduler's placement) picks among them;
// this header only describes them.
//
// net/ sits below proto/, so a PathOption holds pure network identity — the
// environment re-binding (swapping a proto::Environment's path and route)
// lives with the code that owns environments.
#pragma once

#include <string>
#include <vector>

#include "net/tcp_model.hpp"
#include "net/topology.hpp"

namespace eadt::net {

/// One candidate route between a fixed pair of end systems.
struct PathOption {
  std::string name;     ///< stable label, used in traces and decisions
  PathSpec path;        ///< link characteristics of this route
  Route route;          ///< device chain, drives network-device energy
  int tariff_zone = 0;  ///< which tariff schedule bills energy on this route
};

/// An ordered catalogue of alternate routes. Index 0 is the primary — the
/// path the job would use if resilience were disabled. An empty PathSet
/// means "single-path, no failover", and every consumer must behave exactly
/// as if the feature did not exist.
class PathSet {
 public:
  PathSet() = default;
  explicit PathSet(std::vector<PathOption> options) : options_(std::move(options)) {}

  [[nodiscard]] bool empty() const noexcept { return options_.empty(); }
  [[nodiscard]] int size() const noexcept { return static_cast<int>(options_.size()); }
  [[nodiscard]] const PathOption& option(int index) const { return options_.at(static_cast<std::size_t>(index)); }
  [[nodiscard]] const std::vector<PathOption>& options() const noexcept { return options_; }

  void add(PathOption option) { options_.push_back(std::move(option)); }

 private:
  std::vector<PathOption> options_;
};

}  // namespace eadt::net
