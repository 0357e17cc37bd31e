// Weighted max-min fair bandwidth allocation.
//
// Each data channel offers a demand (its own CPU/disk/window cap) and a weight
// (its parallel stream count); the bottleneck capacity is divided by
// progressive filling: channels that cannot use their fair share are capped
// and the residue is redistributed.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "net/tcp_model.hpp"
#include "net/waterfill.hpp"
#include "util/units.hpp"

namespace eadt::net {

// Demand and DemandGroup live in waterfill.hpp (the solver is the base
// layer); this header re-exports them to the existing call sites.

/// Reusable workspace for fair_share_reference_into and unit_fill_clamp. The
/// allocator runs every tick for every disk pool and the shared link;
/// holding the progressive-filling active set here — capacity preserved
/// across calls — makes steady-state allocation heap-free. A scratch is cheap
/// state, not a cache: results are identical whether it is fresh or reused.
struct FairShareScratch {
  std::vector<std::size_t> active;
};

/// The pinned per-flow progressive-filling loop — the semantics every golden
/// in the repo was recorded against, kept verbatim. Weighted max-min fair
/// allocation of `capacity` across `demands`, written into `allocation`
/// (resized to demands.size(); previous contents ignored); returns the total.
/// Each allocation stays under its cap, the total is min(capacity, sum of
/// caps), and uncapped flows share in proportion to their weights.
/// Allocation-free once `allocation` and `scratch` have warmed to capacity.
/// Every product round runs it, whatever its size: on the fleet's
/// ~1,300-flow arbiter rounds it costs a fraction of the waterfill solver's
/// ratio sort. WaterfillSolver is bitwise-equivalent to this on every input
/// (enforced by tests/test_waterfill.cpp); the core_micro bench races the
/// solver against it on a synthetic 10^5-10^6-flow cascade, but no product
/// round calls the solver (MODEL.md §15).
BitsPerSecond fair_share_reference_into(BitsPerSecond capacity,
                                        std::span<const Demand> demands,
                                        std::vector<BitsPerSecond>& allocation,
                                        FairShareScratch& scratch);

/// Clamp each of `caps` to min(cap, its allocation) in a unit-weight fill of
/// `capacity` (every weight 1.0, as in a per-server disk pool): bitwise what
/// fair_share_reference_into followed by std::min(cap, allocation) writes,
/// in place and without the allocation vector. It runs the reference's own
/// rounds with weight 1: the positive caps are active, a round offers each
/// remaining/k, a cap at or under that keeps its value and leaves (its cap
/// comes off `remaining` in index order), and a round that caps no one gives
/// its survivors the share. Once `remaining` is not above the reference's
/// 1e-9 floor (a NaN or non-positive capacity included), the active caps
/// become 0. Caps that are not positive (zero, -0.0, negative, NaN) keep
/// their value. Allocation-free once `scratch` has warmed to capacity.
void unit_fill_clamp(BitsPerSecond capacity, std::span<BitsPerSecond> caps,
                     FairShareScratch& scratch);

/// What a filled link round scales its flows' rates by: `eff` is
/// congestion_efficiency(congestion, aggregate_demand, capacity, streams). An
/// allocation is an average (duty-weighted) rate that a flow bursts above
/// while it streams; `burst_cap` = max(1, capacity / sum(allocation * eff)),
/// summed in index order, so even simultaneous bursts cannot exceed the link.
struct RoundFactors {
  double eff = 1.0;
  double burst_cap = 1.0;  ///< 1 when nothing is allocated
};
[[nodiscard]] RoundFactors round_factors(const CongestionSpec& congestion,
                                         BitsPerSecond capacity, double aggregate_demand,
                                         int streams,
                                         std::span<const BitsPerSecond> allocation);

/// Round size perfbench's fleet replay counts as a waterfill-sized round.
/// No library code dispatches on it; it goes when that replay drops its
/// solver rows.
inline constexpr std::size_t kWaterfillThreshold = 512;

/// Joint arbitration of one shared link across several demand sets (the
/// multi-tenant round of exp::Scheduler): each tenant session submits its
/// per-channel demands, then allocate() runs ONE weighted max-min round over
/// the concatenation, so channels of different tenants contend exactly like
/// channels of one session — stream-count weighted, work-conserving, with no
/// per-tenant reservations. slice(i) returns tenant i's view of the result
/// in submission order. Buffers are reused across rounds (allocation-free
/// once warm, like FairShareScratch). Every round runs the reference loop,
/// whatever its size; exp::Scheduler submits each tenant's per-flow demands.
class LinkArbiter {
 public:
  /// Start a round. Earlier submissions are discarded.
  void begin_round(BitsPerSecond capacity);
  /// Add one tenant's demands; returns the tenant's slice index.
  std::size_t submit(std::span<const Demand> demands);
  /// Add one tenant's demands as (cap, weight, count) groups — each group
  /// contributes `count` contiguous identical flows to the round, exactly as
  /// if submit() had been called with the expansion. The slice stays
  /// per-flow (member-aligned with the expansion). No product path calls
  /// this; the waterfill tests and the benchmark replay do.
  std::size_t submit_groups(std::span<const DemandGroup> groups);
  /// Run the joint fair-share round. Call once per round, after all submits.
  void allocate();
  /// Tenant `i`'s slice of the joint allocation (valid until the next
  /// begin_round). Aligned with the demands it submitted.
  [[nodiscard]] std::span<const BitsPerSecond> slice(std::size_t i) const;
  /// Every slice, in submission order.
  [[nodiscard]] std::span<const BitsPerSecond> allocation() const noexcept {
    return allocation_;
  }
  [[nodiscard]] BitsPerSecond capacity() const noexcept { return capacity_; }
  [[nodiscard]] BitsPerSecond total() const noexcept { return total_; }

 private:
  struct Range {
    std::size_t offset = 0;
    std::size_t count = 0;
  };
  BitsPerSecond capacity_ = 0.0;
  BitsPerSecond total_ = 0.0;
  std::vector<Demand> demands_;
  std::vector<Range> ranges_;
  std::vector<BitsPerSecond> allocation_;
  FairShareScratch scratch_;
};

}  // namespace eadt::net
