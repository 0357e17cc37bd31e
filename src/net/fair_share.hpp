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

#include "net/waterfill.hpp"
#include "util/units.hpp"

namespace eadt::net {

// Demand and DemandGroup live in waterfill.hpp (the solver is the base
// layer); this header re-exports them to the existing call sites.

struct FairShareResult {
  std::vector<BitsPerSecond> allocation;  ///< per-demand rate, same order
  BitsPerSecond total = 0.0;              ///< sum of allocations
};

/// Reusable workspace for fair_share_into. The allocator runs every tick for
/// every disk pool and the shared link; holding the progressive-filling
/// active set here — capacity preserved across calls — makes steady-state
/// allocation heap-free. A scratch is cheap state, not a cache: results are
/// identical whether it is fresh or reused.
struct FairShareScratch {
  std::vector<std::size_t> active;
};

/// The pinned per-flow progressive-filling loop — the semantics every golden
/// in the repo was recorded against, kept verbatim. fair_share_into runs it
/// at every round size. WaterfillSolver is bitwise-equivalent to this on
/// every input (enforced by tests/test_waterfill.cpp); the core_micro bench
/// races the solver against it on a synthetic 10^5-10^6-flow cascade, but no
/// product round calls the solver (MODEL.md §15).
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

/// Weighted max-min fair allocation of `capacity` across `demands`, written
/// into `allocation` (resized to demands.size(); previous contents ignored).
/// Returns the total. Bitwise-identical to fair_share() — same values out,
/// whatever the path — and allocation-free once `allocation` and `scratch`
/// have warmed to capacity. Every round runs the reference loop: on the
/// fleet's ~1,300-flow arbiter rounds it costs a fraction of the waterfill
/// solver's ratio sort, so the solver earns no place on the product path.
BitsPerSecond fair_share_into(BitsPerSecond capacity, std::span<const Demand> demands,
                              std::vector<BitsPerSecond>& allocation,
                              FairShareScratch& scratch);

/// Round size perfbench's fleet replay counts as a waterfill-sized round.
/// No library code dispatches on it; it goes when that replay drops its
/// solver rows.
inline constexpr std::size_t kWaterfillThreshold = 512;

/// Weighted max-min fair allocation of `capacity` across `demands`.
/// Properties (asserted by tests):
///   * allocation[i] <= demands[i].cap
///   * total <= capacity (+ epsilon)
///   * work-conserving: total == min(capacity, sum of caps)
///   * unconstrained channels receive rate proportional to weight
[[nodiscard]] FairShareResult fair_share(BitsPerSecond capacity,
                                         std::span<const Demand> demands);

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
