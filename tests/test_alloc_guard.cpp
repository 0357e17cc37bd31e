// Allocation guard for the engine's steady-state hot path.
//
// MODEL.md §11's invariant: once a session's scratch buffers have grown to
// their working size, a steady-state tick — rate allocation, byte movement,
// energy accounting, sampling, the ticker re-arm itself — performs zero heap
// allocations. The proof is a counting replacement of the global operator
// new/delete: a Controller snapshots the allocation counter at every
// sampling window, and after the warm-up windows every delta must be zero.
//
// This lives in its own test binary: replacing global new/delete is
// process-wide, and the counters must not be perturbed by (or perturb) the
// main suite.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <vector>

#include "exp/scheduler.hpp"
#include "exp/service.hpp"
#include "net/path_set.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "proto/session.hpp"
#include "test_env.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// GCC pairs these against the default operator new and flags the free() as
// mismatched; our replacement new above is malloc-backed, so it is not.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace eadt::proto {
namespace {

using testutil::dataset_of;
using testutil::small_env;

/// Snapshots the global allocation counter at every sampling window into a
/// fixed-size buffer — the controller itself must not allocate mid-run.
class AllocSnapshotController : public Controller {
 public:
  void on_sample(TransferSession& /*session*/, const SampleStats& /*stats*/) override {
    if (count_ < kMax) snapshots_[count_++] = g_allocations.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] std::uint64_t at(std::size_t i) const { return snapshots_[i]; }

 private:
  static constexpr std::size_t kMax = 256;
  std::uint64_t snapshots_[kMax] = {};
  std::size_t count_ = 0;
};

TEST(AllocGuard, SteadyStateTicksAreAllocationFree) {
  const auto env = small_env();
  // One file far larger than the deadline allows: the run never completes
  // and never resolves a file mid-tick, so every window past warm-up is
  // pure steady state.
  const auto ds = dataset_of({100ULL * kGB});
  TransferPlan plan;
  Chunk all{SizeClass::kLarge, {0}, 100ULL * kGB};
  plan.chunks.push_back(all);
  plan.params.push_back({1, 1, 2});

  SessionConfig cfg;
  cfg.tick = 0.1;
  cfg.sample_interval = 2.0;
  cfg.max_sim_time = 120.0;

  TransferSession session(env, ds, plan, cfg);
  AllocSnapshotController ctl;
  const auto r = session.run(&ctl);
  EXPECT_FALSE(r.completed);

  // ~60 windows; the first few may still grow scratch capacity (rate
  // vectors, the event heap, the samples reserve) — after that, flat.
  ASSERT_GE(ctl.count(), 16u);
  const std::size_t warmup = 2;
  for (std::size_t i = warmup + 1; i < ctl.count(); ++i) {
    EXPECT_EQ(ctl.at(i) - ctl.at(i - 1), 0u)
        << "heap allocation between sampling windows " << i - 1 << " and " << i;
  }
}

}  // namespace
}  // namespace eadt::proto

namespace eadt::exp {
namespace {

/// The scheduler's steady-state master tick must be allocation-free too: the
/// per-tick scratch (watchdog/finish lists, path groups, staged allocation
/// slices) is Scheduler-owned and reused, and each session's tick is covered
/// by the single-session guard above. The Scheduler owns its controllers and
/// its simulation, so there is no mid-run hook to snapshot from; instead this
/// is a differential: the same never-completing 24-tenant schedule run to
/// horizon T and to horizon 2T must allocate exactly the same number of
/// times — any per-tick allocation would make the longer run allocate more.
/// `two_paths` spreads the fleet over a primary and a backup route and
/// attaches an ObsCollector, so the per-path rounds and the per-tick gauges
/// (peak power, per-path phi) are under the same differential. `tick_jobs` > 1
/// runs the tick pipeline on a TickPool: the 24 running tenants clear the
/// pool's 16-tenant cutoff, so every tick fans out.
std::uint64_t fleet_allocations(const Seconds horizon, const double telemetry_stride,
                                const bool two_paths = false, const int tick_jobs = 1) {
  auto tb = testbeds::xsede();
  SchedulerPolicy policy;
  policy.max_concurrent = 24;
  policy.max_queue_depth = 24;
  policy.horizon = horizon;
  policy.jobs = tick_jobs;
  if (two_paths) {
    policy.paths.add({"primary", tb.env.path, tb.env.route, 0});
    net::PathSpec alt = tb.env.path;
    alt.rtt *= 1.5;
    policy.paths.add({"backup", alt, net::futuregrid_route(), 1});
    // Room for half the fleet per site, so placement fills both paths.
    const Watts peak = session_peak_power_bound(tb.env);
    policy.path_power_caps = {peak * 12.5, peak * 12.5};
  }
  proto::SessionConfig cfg;
  cfg.tick = 0.1;
  cfg.sample_interval = 2.0;

  std::vector<SchedulerJob> jobs;
  for (int i = 0; i < 24; ++i) {
    TransferJob job;
    // One file no horizon this short can finish: no tenant ever completes,
    // so every tick past warm-up is pure steady state and the two horizons
    // run byte-identical prefixes of the same schedule.
    job.name = "g";
    job.name += std::to_string(i);
    job.dataset.files.push_back({100ULL * kGB});
    job.policy = JobPolicy::kDeadline;
    job.max_channels = 2;
    jobs.push_back({std::move(job), 0.0});
  }

  // The telemetry instruments ride along (hub pre-sized at construction,
  // recorder ring reserved up front), outside the counted window: attaching
  // them must not add per-tick or per-sample allocations.
  obs::TelemetryHub hub(telemetry_stride, 256, 1);
  obs::TickFlightRecorder flightrec;
  obs::ObsCollector collector;
  // The wall-clock profiler rides pooled runs: its per-worker ops gauges
  // show the pool actually took the phases.
  obs::MetricsRegistry profile;
  obs::TickProfiler profiler(profile);
  Scheduler scheduler(tb, gbps(7.0), policy, cfg);
  scheduler.set_telemetry(&hub);
  scheduler.set_flight_recorder(&flightrec);
  if (two_paths) scheduler.set_collector(&collector);
  if (tick_jobs > 1) scheduler.set_tick_profiler(&profiler);
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const auto report = scheduler.run(std::move(jobs));
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(report.completed, 0);
  EXPECT_EQ(report.failed, 24);  // horizon cleanup, identically in both runs
  if (telemetry_stride > 0.0) {
    EXPECT_GT(hub.size(), 0u);
  }
  EXPECT_EQ(flightrec.triggers(), 0u);  // a clean run never dumps
  if (two_paths) {
    int on_backup = 0;
    for (const auto& out : report.jobs) on_backup += out.path == 1 ? 1 : 0;
    EXPECT_EQ(on_backup, 12);
  }
  if (tick_jobs > 1) {
    double ops = 0.0;
    for (const auto& m : profile.snapshot()) {
      if (m.name.ends_with(".ops")) ops += m.value;
    }
    EXPECT_GT(ops, 0.0) << "the tick pool never engaged";
  }
  return after - before;
}

TEST(AllocGuard, SchedulerSteadyStateTicksAreAllocationFree) {
  const std::uint64_t short_run = fleet_allocations(60.0, /*telemetry_stride=*/0.0);
  const std::uint64_t long_run = fleet_allocations(120.0, /*telemetry_stride=*/0.0);
  EXPECT_EQ(short_run, long_run)
      << "the extra 600 steady-state master ticks of the longer run allocated "
      << (long_run - short_run) << " times";
}

TEST(AllocGuard, TelemetrySamplingTicksAreAllocationFree) {
  // Same differential with the sampler live at a 5 s stride: the longer run
  // takes 12 more samples than the shorter, and record() must commit each of
  // them into the pre-sized ring without touching the heap.
  const std::uint64_t short_run = fleet_allocations(60.0, /*telemetry_stride=*/5.0);
  const std::uint64_t long_run = fleet_allocations(120.0, /*telemetry_stride=*/5.0);
  EXPECT_EQ(short_run, long_run)
      << "the longer run's extra telemetry samples allocated "
      << (long_run - short_run) << " times";
}

TEST(AllocGuard, SchedulerPooledTicksAreAllocationFree) {
  // The same differential at 4 tick workers: range dispatch, the spin-then-
  // park hand-off and the sharded commit's staged flags must not allocate
  // per tick either.
  const std::uint64_t short_run = fleet_allocations(60.0, 5.0, false, /*tick_jobs=*/4);
  const std::uint64_t long_run = fleet_allocations(120.0, 5.0, false, /*tick_jobs=*/4);
  EXPECT_EQ(short_run, long_run)
      << "the extra 600 pooled master ticks of the longer run allocated "
      << (long_run - short_run) << " times";
}

TEST(AllocGuard, TwoPathTicksWithCollectorAreAllocationFree) {
  // Two fair-share rounds a tick and the collector's gauges updated every
  // tick: the gauge handles are resolved once, so the 600 extra ticks of the
  // longer run must not allocate either.
  const std::uint64_t short_run = fleet_allocations(60.0, 0.0, /*two_paths=*/true);
  const std::uint64_t long_run = fleet_allocations(120.0, 0.0, /*two_paths=*/true);
  EXPECT_EQ(short_run, long_run)
      << "the extra 600 two-path master ticks of the longer run allocated "
      << (long_run - short_run) << " times";
}

}  // namespace
}  // namespace eadt::exp
