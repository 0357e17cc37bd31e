// The three experimental environments of the paper (Figure 1 / Figure 9),
// recast as simulator configurations:
//
//   XSEDE      Stampede (TACC) <-> Gordon (SDSC): 10 Gbps, 40 ms RTT, 32 MB
//              max TCP buffer, four 4-core DTN servers per site with striped
//              parallel storage.
//   FutureGrid Alamo (TACC) <-> Hotel (UChicago): 1 Gbps, 28 ms RTT, 32 MB
//              buffer, older 8-core nodes.
//   DIDCLAB    WS9 <-> WS6 LAN: 1 Gbps, ~0.2 ms RTT, single-disk
//              workstations (concurrent access thrashes the spindle).
//
// Host capability and power numbers are calibrated, not measured: they are
// chosen so the simulator reproduces the paper's qualitative behaviour
// (who wins, where the energy parabola bottoms out, where crossovers fall).
// See DESIGN.md section 2 for the substitution rationale.
#pragma once

#include "proto/dataset.hpp"
#include "proto/environment.hpp"

namespace eadt::testbeds {

struct Testbed {
  proto::Environment env;
  proto::DatasetRecipe recipe;
  /// When non-empty, make_dataset() loads this listing file (one
  /// "<size> [name]" per line) instead of generating from the recipe.
  std::string dataset_listing_path;
  int default_max_channels = 12;
  std::uint64_t dataset_seed = 42;

  /// Builds the experiment dataset: from the listing file if configured
  /// (throws std::runtime_error on a malformed listing — configuration is
  /// programmer/operator input), otherwise synthesised from the recipe.
  [[nodiscard]] proto::Dataset make_dataset() const;
};

/// `t` with its recipe shrunk for a quick run: total bytes and every band's
/// largest file divided by `divisor` (0 counts as 1), a band's largest file
/// never below twice its smallest. Shrinking the band maxima along with the
/// total keeps the size mix: otherwise one near-maximum file would floor
/// every algorithm's duration.
[[nodiscard]] Testbed scaled(Testbed t, unsigned divisor);

[[nodiscard]] Testbed xsede();
[[nodiscard]] Testbed futuregrid();
[[nodiscard]] Testbed didclab();

/// All three, for parameterized sweeps.
[[nodiscard]] std::vector<Testbed> all_testbeds();

}  // namespace eadt::testbeds
