#include "net/fair_share.hpp"

#include <numeric>

namespace eadt::net {

BitsPerSecond fair_share_reference_into(BitsPerSecond capacity,
                                        std::span<const Demand> demands,
                                        std::vector<BitsPerSecond>& allocation,
                                        FairShareScratch& scratch) {
  allocation.assign(demands.size(), 0.0);
  if (demands.empty() || capacity <= 0.0) return 0.0;

  auto& active = scratch.active;
  active.clear();
  for (std::size_t i = 0; i < demands.size(); ++i) {
    if (demands[i].cap > 0.0 && demands[i].weight > 0.0) active.push_back(i);
  }

  BitsPerSecond remaining = capacity;
  // Progressive filling: each round gives every active channel its weighted
  // share; channels that hit their cap leave, freeing capacity for the rest.
  // Terminates in <= |demands| rounds because each round removes >= 1 channel
  // or stops. Survivors are compacted toward the front of `active` in place
  // (index order preserved), so a round costs O(|active|) with no copies.
  while (!active.empty() && remaining > 1e-9) {
    double weight_sum = 0.0;
    for (std::size_t i : active) weight_sum += demands[i].weight;
    if (weight_sum <= 0.0) break;

    bool someone_capped = false;
    std::size_t survivors = 0;
    const BitsPerSecond per_weight = remaining / weight_sum;
    for (std::size_t k = 0; k < active.size(); ++k) {
      const std::size_t i = active[k];
      const BitsPerSecond share = per_weight * demands[i].weight;
      const BitsPerSecond headroom = demands[i].cap - allocation[i];
      if (headroom <= share) {
        allocation[i] = demands[i].cap;
        remaining -= headroom;
        someone_capped = true;
      } else {
        active[survivors++] = i;
      }
    }
    active.resize(survivors);
    if (!someone_capped) {
      // Nobody capped: everyone takes the fair share and we are done.
      for (std::size_t i : active) {
        allocation[i] += per_weight * demands[i].weight;
      }
      remaining = 0.0;
      break;
    }
  }

  return std::accumulate(allocation.begin(), allocation.end(), 0.0);
}

void unit_fill_clamp(BitsPerSecond capacity, std::span<BitsPerSecond> caps,
                     FairShareScratch& scratch) {
  // Every active flow's allocation is 0 until it leaves, so its headroom is
  // its cap, and the weight sum of a round is exactly its active count.
  auto& active = scratch.active;
  active.clear();
  for (std::size_t i = 0; i < caps.size(); ++i) {
    if (caps[i] > 0.0) active.push_back(i);
  }
  BitsPerSecond remaining = capacity;
  while (!active.empty()) {
    if (!(remaining > 1e-9)) {
      for (const std::size_t i : active) caps[i] = 0.0;
      return;
    }
    const BitsPerSecond share = remaining / static_cast<double>(active.size());
    std::size_t survivors = 0;
    for (const std::size_t i : active) {
      if (caps[i] <= share) {
        remaining -= caps[i];
      } else {
        active[survivors++] = i;
      }
    }
    if (survivors == active.size()) {
      for (const std::size_t i : active) caps[i] = share;
      return;
    }
    active.resize(survivors);
  }
}

BitsPerSecond fair_share_into(BitsPerSecond capacity, std::span<const Demand> demands,
                              std::vector<BitsPerSecond>& allocation,
                              FairShareScratch& scratch) {
  return fair_share_reference_into(capacity, demands, allocation, scratch);
}

FairShareResult fair_share(BitsPerSecond capacity, std::span<const Demand> demands) {
  FairShareResult out;
  FairShareScratch scratch;
  out.total = fair_share_into(capacity, demands, out.allocation, scratch);
  return out;
}

void LinkArbiter::begin_round(BitsPerSecond capacity) {
  capacity_ = capacity;
  total_ = 0.0;
  demands_.clear();
  ranges_.clear();
}

std::size_t LinkArbiter::submit(std::span<const Demand> demands) {
  ranges_.push_back({demands_.size(), demands.size()});
  demands_.insert(demands_.end(), demands.begin(), demands.end());
  return ranges_.size() - 1;
}

std::size_t LinkArbiter::submit_groups(std::span<const DemandGroup> groups) {
  const std::size_t offset = demands_.size();
  std::size_t members = 0;
  for (const auto& g : groups) {
    demands_.insert(demands_.end(), static_cast<std::size_t>(g.count),
                    Demand{g.cap, g.weight});
    members += static_cast<std::size_t>(g.count);
  }
  ranges_.push_back({offset, members});
  return ranges_.size() - 1;
}

void LinkArbiter::allocate() {
  total_ = fair_share_into(capacity_, demands_, allocation_, scratch_);
}

std::span<const BitsPerSecond> LinkArbiter::slice(std::size_t i) const {
  const Range& r = ranges_[i];
  return {allocation_.data() + r.offset, r.count};
}

}  // namespace eadt::net
