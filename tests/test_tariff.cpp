#include "power/tariff.hpp"

#include <gtest/gtest.h>

#include "exp/service.hpp"

namespace eadt::power {
namespace {

TEST(Tariff, FlatRateIsJustKwhTimesPrice) {
  const auto t = Tariff::flat(0.20);
  // 1 kWh = 3.6 MJ at $0.20.
  EXPECT_NEAR(t.cost(3.6e6, 0.0, 3600.0), 0.20, 1e-9);
  EXPECT_DOUBLE_EQ(t.price_at(0.0), 0.20);
  EXPECT_DOUBLE_EQ(t.price_at(13.5 * 3600.0), 0.20);
}

TEST(Tariff, UsdPerJouleConversion) {
  EXPECT_NEAR(usd_per_joule(0.36), 1e-7, 1e-15);
}

TEST(Tariff, TimeOfUsePricesByHour) {
  // Peak 17-21h at $0.30, off-peak 0-6h at $0.05, base $0.12.
  const auto t = Tariff::time_of_use(
      0.12, {{17.0, 21.0, 0.30}, {0.0, 6.0, 0.05}});
  EXPECT_DOUBLE_EQ(t.price_at(3.0 * 3600.0), 0.05);
  EXPECT_DOUBLE_EQ(t.price_at(12.0 * 3600.0), 0.12);
  EXPECT_DOUBLE_EQ(t.price_at(18.0 * 3600.0), 0.30);
  EXPECT_DOUBLE_EQ(t.price_at(21.0 * 3600.0), 0.12);  // end is exclusive
  // The schedule repeats daily.
  EXPECT_DOUBLE_EQ(t.price_at(kSecondsPerDay + 3.0 * 3600.0), 0.05);
  EXPECT_DOUBLE_EQ(t.cheapest_hour(), 0.0);
}

TEST(Tariff, MidnightWrappingBand) {
  const auto t = Tariff::time_of_use(0.12, {{22.0, 6.0, 0.04}});
  EXPECT_DOUBLE_EQ(t.price_at(23.0 * 3600.0), 0.04);
  EXPECT_DOUBLE_EQ(t.price_at(2.0 * 3600.0), 0.04);
  EXPECT_DOUBLE_EQ(t.price_at(12.0 * 3600.0), 0.12);
}

TEST(Tariff, CostIntegratesAcrossBandBoundaries) {
  // 16:00-18:00 at constant 1 kW: one hour at base, one at peak.
  const auto t = Tariff::time_of_use(0.10, {{17.0, 21.0, 0.30}});
  const Joules two_hours_at_1kw = 1000.0 * 2.0 * 3600.0;
  const double usd = t.cost(two_hours_at_1kw, 16.0 * 3600.0, 2.0 * 3600.0);
  EXPECT_NEAR(usd, 0.10 + 0.30, 1e-9);
}

TEST(Tariff, CostIntegratesAcrossMidnight) {
  const auto t = Tariff::time_of_use(0.10, {{0.0, 6.0, 0.02}});
  // 23:00 to 01:00 at 1 kW: one hour base, one hour off-peak.
  const Joules e = 1000.0 * 2.0 * 3600.0;
  EXPECT_NEAR(t.cost(e, 23.0 * 3600.0, 2.0 * 3600.0), 0.10 + 0.02, 1e-9);
}

TEST(Tariff, DegenerateInputs) {
  const auto t = Tariff::flat(0.10);
  EXPECT_DOUBLE_EQ(t.cost(0.0, 0.0, 100.0), 0.0);
  // Zero duration: charged at the instant's price.
  EXPECT_NEAR(t.cost(3.6e6, 0.0, 0.0), 0.10, 1e-9);
  // Empty bands collapse to the base rate.
  const auto empty = Tariff::time_of_use(0.07, {{5.0, 5.0, 0.99}});
  EXPECT_DOUBLE_EQ(empty.price_at(5.0 * 3600.0), 0.07);
}

TEST(TariffService, QueueCostsDependOnStartTime) {
  const auto testbed = testbeds::scaled(testbeds::xsede(), 64);
  proto::SessionConfig cfg;
  cfg.sample_interval = 1.0;
  exp::TransferService service(testbed, gbps(7.0), cfg);

  std::vector<exp::TransferJob> jobs;
  jobs.push_back({"j", testbed.make_dataset(), exp::JobPolicy::kDeadline, 0, 0, 8});

  const auto tou = Tariff::time_of_use(0.10, {{17.0, 21.0, 0.40}});
  service.set_tariff(tou, 18.0 * 3600.0);  // starts mid-peak
  const auto peak = service.run_queue(jobs);
  service.set_tariff(tou, 2.0 * 3600.0);  // small hours
  const auto night = service.run_queue(jobs);

  ASSERT_GT(peak.total_cost_usd, 0.0);
  EXPECT_NEAR(peak.total_cost_usd / night.total_cost_usd, 4.0, 0.05);
  EXPECT_NEAR(peak.jobs[0].cost_usd, peak.total_cost_usd, 1e-12);
}

}  // namespace
}  // namespace eadt::power
