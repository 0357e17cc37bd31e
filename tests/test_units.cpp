#include "util/units.hpp"

#include <gtest/gtest.h>

namespace eadt {
namespace {

TEST(Units, BinaryByteConstants) {
  EXPECT_EQ(kKB, 1024ULL);
  EXPECT_EQ(kMB, 1024ULL * 1024);
  EXPECT_EQ(kGB, 1024ULL * 1024 * 1024);
}

TEST(Units, RateConversions) {
  EXPECT_DOUBLE_EQ(mbps(100.0), 1e8);
  EXPECT_DOUBLE_EQ(gbps(10.0), 1e10);
  EXPECT_DOUBLE_EQ(to_mbps(mbps(250.0)), 250.0);
  EXPECT_DOUBLE_EQ(to_gbps(gbps(1.5)), 1.5);
}

TEST(Units, BitsAndSizeReporting) {
  EXPECT_DOUBLE_EQ(to_bits(1), 8.0);
  EXPECT_DOUBLE_EQ(to_mb(2 * kMB), 2.0);
  EXPECT_DOUBLE_EQ(to_gb(3 * kGB), 3.0);
}

TEST(Units, TransferTime) {
  // 1 GB at 8 Gbit/s is ~1.07 seconds (binary GB).
  EXPECT_NEAR(transfer_time(kGB, gbps(8.0)), 1.0737, 1e-3);
  EXPECT_GT(transfer_time(kGB, 0.0), 1e100);  // "infinite" sentinel
}

TEST(Units, BdpMatchesPaperExamples) {
  // XSEDE: 10 Gbps * 40 ms = 50 MB (decimal) = ~47.7 binary MB.
  const Bytes bdp = bdp_bytes(gbps(10.0), 0.040);
  EXPECT_EQ(bdp, 50'000'000ULL);
  // FutureGrid: 1 Gbps * 28 ms = 3.5 MB.
  EXPECT_EQ(bdp_bytes(gbps(1.0), 0.028), 3'500'000ULL);
  // Degenerate inputs.
  EXPECT_EQ(bdp_bytes(0.0, 1.0), 0ULL);
  EXPECT_EQ(bdp_bytes(gbps(1.0), 0.0), 0ULL);
}

}  // namespace
}  // namespace eadt
