#include "power/end_system.hpp"

#include <gtest/gtest.h>

namespace eadt::power {
namespace {

TEST(Eq2, MatchesPaperPolynomial) {
  // C_cpu,n = 0.011 n^2 - 0.082 n + 0.344
  EXPECT_NEAR(cpu_coefficient(1), 0.273, 1e-9);
  EXPECT_NEAR(cpu_coefficient(2), 0.224, 1e-9);
  EXPECT_NEAR(cpu_coefficient(4), 0.192, 1e-9);
  EXPECT_NEAR(cpu_coefficient(8), 0.392, 1e-9);
}

TEST(Eq2, ParabolaBottomsNearFourCores) {
  // The paper: "energy consumption per core decreases as the number of
  // active cores increases" up to the 4-core count of the XSEDE DTNs,
  // then rises. Analytically the vertex is at n = 0.082 / 0.022 ~ 3.7.
  EXPECT_LT(cpu_coefficient(4), cpu_coefficient(1));
  EXPECT_LT(cpu_coefficient(4), cpu_coefficient(2));
  EXPECT_LT(cpu_coefficient(4), cpu_coefficient(3));
  EXPECT_LT(cpu_coefficient(4), cpu_coefficient(5));
  EXPECT_LT(cpu_coefficient(4), cpu_coefficient(6));
}

TEST(FineGrained, Eq1LinearInUtilizations) {
  PowerCoefficients c{100.0, 30.0, 25.0, 20.0, 10.0};
  host::Utilization u{0.5, 0.2, 0.4, 0.3};
  const Watts expect = 10.0 + cpu_coefficient(4) * 100.0 * 0.5 + 30.0 * 0.2 +
                       25.0 * 0.4 + 20.0 * 0.3;
  EXPECT_NEAR(fine_grained_power(c, 4, u), expect, 1e-9);
}

TEST(FineGrained, InactiveServerDrawsNothing) {
  PowerCoefficients c;
  EXPECT_DOUBLE_EQ(fine_grained_power(c, 0, {1, 1, 1, 1}), 0.0);
}

TEST(FineGrained, MonotoneInEachComponent) {
  PowerCoefficients c;
  host::Utilization base{0.3, 0.3, 0.3, 0.3};
  const Watts p0 = fine_grained_power(c, 4, base);
  for (int comp = 0; comp < 4; ++comp) {
    host::Utilization u = base;
    (comp == 0 ? u.cpu : comp == 1 ? u.mem : comp == 2 ? u.disk : u.nic) = 0.8;
    EXPECT_GT(fine_grained_power(c, 4, u), p0);
  }
}

}  // namespace
}  // namespace eadt::power
