// Result export: sweep CSVs and gnuplot scripts for the figure benches, so
// the paper's plots can be regenerated outside the terminal tables.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "exp/runner.hpp"

namespace eadt::exp {

/// A figure-2-style sweep: one row per concurrency level, one column group
/// per algorithm (throughput_mbps, energy_j, ratio).
struct SweepTable {
  std::vector<int> levels;
  /// outcome[algorithm][level]
  std::map<Algorithm, std::map<int, RunOutcome>> outcomes;
};

void write_sweep_csv(std::ostream& os, const SweepTable& sweep);

/// Gnuplot script that renders the three panels (throughput, energy,
/// efficiency) from a CSV produced by write_sweep_csv. `csv_path` is baked
/// into the script; output is `<stem>_{a,b,c}.png`.
void write_sweep_gnuplot(std::ostream& os, const SweepTable& sweep,
                         const std::string& csv_path, const std::string& stem);

}  // namespace eadt::exp
