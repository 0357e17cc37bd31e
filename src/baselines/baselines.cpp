#include "baselines/baselines.hpp"

#include <algorithm>

#include "core/algorithms.hpp"

namespace eadt::baselines {

proto::TransferPlan plan_guc(const proto::Environment& env, const proto::Dataset& dataset,
                             int concurrency, int parallelism, int pipelining) {
  (void)env;
  proto::TransferPlan plan;
  proto::Chunk all;
  all.cls = proto::SizeClass::kLarge;
  for (std::uint32_t i = 0; i < dataset.files.size(); ++i) {
    all.file_ids.push_back(i);
    all.total += dataset.files[i].size;
  }
  plan.chunks.push_back(std::move(all));
  plan.params.push_back({std::max(1, pipelining), std::max(1, parallelism),
                         std::max(1, concurrency)});
  plan.placement = proto::Placement::kRoundRobin;
  plan.steal = proto::StealPolicy::kAll;
  plan.sequential_chunks = false;
  return plan;
}

proto::TransferPlan plan_go(const proto::Environment& env, const proto::Dataset& dataset,
                            bool verify_checksums) {
  (void)env;
  // Globus Online's fixed partitioning: < 50 MB, 50-250 MB, > 250 MB.
  constexpr Bytes kSmallMax = 50 * kMB;
  constexpr Bytes kLargeMin = 250 * kMB;
  proto::Chunk small{proto::SizeClass::kSmall, {}, 0};
  proto::Chunk medium{proto::SizeClass::kMedium, {}, 0};
  proto::Chunk large{proto::SizeClass::kLarge, {}, 0};
  for (std::uint32_t i = 0; i < dataset.files.size(); ++i) {
    const Bytes sz = dataset.files[i].size;
    proto::Chunk& c = sz < kSmallMax ? small : (sz < kLargeMin ? medium : large);
    c.file_ids.push_back(i);
    c.total += sz;
  }
  proto::TransferPlan plan;
  // Fixed per-class parameters (e.g. "pipelining 20 and parallelism 2 for
  // small files"); fixed concurrency of 2 regardless of user input.
  struct Fixed {
    proto::Chunk* chunk;
    int pp;
  };
  for (const Fixed f : {Fixed{&small, 20}, Fixed{&medium, 5}, Fixed{&large, 1}}) {
    if (f.chunk->file_ids.empty()) continue;
    plan.chunks.push_back(std::move(*f.chunk));
    plan.params.push_back({f.pp, 2, 2});
  }
  plan.placement = proto::Placement::kRoundRobin;
  plan.steal = proto::StealPolicy::kAll;
  plan.sequential_chunks = true;  // divide-and-transfer, one group at a time
  // The hosted service pipelines every file through its cloud bookkeeping.
  plan.service_overhead_per_file = 0.12;
  if (verify_checksums) plan.checksum_rate = gbps(3.0);  // MD5 re-read pass
  return plan;
}

proto::TransferPlan plan_single_chunk(const proto::Environment& env,
                                      const proto::Dataset& dataset, int concurrency) {
  proto::TransferPlan plan = core::tuned_chunk_plan(env, dataset);
  for (auto& p : plan.params) p.channels = std::max(1, concurrency);
  plan.placement = proto::Placement::kPacked;
  plan.steal = proto::StealPolicy::kAll;
  plan.sequential_chunks = true;
  return plan;
}

proto::TransferPlan plan_promc(const proto::Environment& env,
                               const proto::Dataset& dataset, int concurrency) {
  return core::weighted_plan(env, dataset, concurrency, /*ensure_total=*/true, "ProMC");
}

}  // namespace eadt::baselines
