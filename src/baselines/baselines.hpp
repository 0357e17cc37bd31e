// Energy-agnostic comparison algorithms from the paper's evaluation:
//
//   GUC   — globus-url-copy without tuning: the whole dataset as one chunk,
//           pipelining = parallelism = concurrency = 1, channels spread over
//           a site's DTN servers (the paper's base case).
//   GO    — Globus Online: fixed size classes (< 50 MB, 50-250 MB, > 250 MB),
//           fixed per-class parameters (pipelining 20/5/1, parallelism 2),
//           fixed concurrency 2, chunks transferred one by one, channels
//           spread over multiple DTN servers.
//   SC    — Single Chunk: BDP partitioning + tuned parameters, but chunks are
//           transferred sequentially, each with the user's full concurrency.
//   ProMC — Pro-active Multi-Chunk: BDP partitioning + tuned parameters,
//           all chunks in flight at once, channels weighted by chunk
//           size/count, full user concurrency (throughput-greedy).
//   BF    — brute force: "a revised version of HTEE that skips the search
//           phase": ProMC's plan run at one fixed concurrency level; sweeping
//           it 1..20 gives the paper's ideal reference for the
//           throughput/energy ratio (exp::run_algorithm's kBf).
#pragma once

#include "proto/environment.hpp"
#include "proto/plan.hpp"

namespace eadt::baselines {

[[nodiscard]] proto::TransferPlan plan_guc(const proto::Environment& env,
                                           const proto::Dataset& dataset,
                                           int concurrency = 1, int parallelism = 1,
                                           int pipelining = 1);

/// `verify_checksums` re-enables GO's integrity verification (the paper
/// disabled it for the comparison because of its "significant slowdowns").
[[nodiscard]] proto::TransferPlan plan_go(const proto::Environment& env,
                                          const proto::Dataset& dataset,
                                          bool verify_checksums = false);

[[nodiscard]] proto::TransferPlan plan_single_chunk(const proto::Environment& env,
                                                    const proto::Dataset& dataset,
                                                    int concurrency);

[[nodiscard]] proto::TransferPlan plan_promc(const proto::Environment& env,
                                             const proto::Dataset& dataset,
                                             int concurrency);

}  // namespace eadt::baselines
