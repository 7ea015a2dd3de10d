#include "model/overlap.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace {

using dckpt::model::OverlapModel;

TEST(OverlapModelTest, EndpointsMatchPaper) {
  const OverlapModel overlap(4.0, 10.0);
  // phi = theta_min: fully blocking, theta = theta_min.
  EXPECT_DOUBLE_EQ(overlap.theta_of_phi(4.0), 4.0);
  // phi = 0: fully overlapped, theta = (1 + alpha) * theta_min.
  EXPECT_DOUBLE_EQ(overlap.theta_of_phi(0.0), 44.0);
  EXPECT_DOUBLE_EQ(overlap.theta_max(), 44.0);
}

TEST(OverlapModelTest, LinearInterpolation) {
  const OverlapModel overlap(4.0, 10.0);
  // theta(phi) = theta_min + alpha (theta_min - phi)
  EXPECT_DOUBLE_EQ(overlap.theta_of_phi(2.0), 4.0 + 10.0 * 2.0);
  EXPECT_DOUBLE_EQ(overlap.theta_of_phi(3.0), 4.0 + 10.0 * 1.0);
}

TEST(OverlapModelTest, AlphaZeroDegenerate) {
  const OverlapModel overlap(4.0, 0.0);
  EXPECT_DOUBLE_EQ(overlap.theta_max(), 4.0);
  EXPECT_DOUBLE_EQ(overlap.theta_of_phi(0.0), 4.0);
}

TEST(OverlapModelTest, RejectsOutOfDomain) {
  const OverlapModel overlap(4.0, 10.0);
  EXPECT_THROW(overlap.theta_of_phi(-0.1), std::invalid_argument);
  EXPECT_THROW(overlap.theta_of_phi(4.1), std::invalid_argument);
}

TEST(OverlapModelTest, ApplicationShareOfTheTransferGrowsWithOverlap) {
  // During a transfer stretched to theta(phi) the application is blocked
  // for phi seconds, so it keeps (theta - phi) / theta of full speed: 0 for
  // the blocking transfer, 1 at full overlap, strictly increasing between.
  const OverlapModel overlap(60.0, 10.0);
  const auto share = [&overlap](double phi) {
    const double theta = overlap.theta_of_phi(phi);
    return (theta - phi) / theta;
  };
  EXPECT_DOUBLE_EQ(share(60.0), 0.0);
  EXPECT_DOUBLE_EQ(share(0.0), 1.0);
  double previous = -1.0;
  for (double phi = 60.0; phi >= 0.0; phi -= 5.0) {
    const double rate = share(phi);
    EXPECT_GT(rate, previous) << "phi " << phi;
    previous = rate;
  }
}

TEST(OverlapModelTest, RejectsBadConstruction) {
  EXPECT_THROW(OverlapModel(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(OverlapModel(-1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(OverlapModel(1.0, -0.5), std::invalid_argument);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(OverlapModel(inf, 1.0), std::invalid_argument);
  EXPECT_THROW(OverlapModel(nan, 1.0), std::invalid_argument);
  EXPECT_THROW(OverlapModel(1.0, inf), std::invalid_argument);
  EXPECT_THROW(OverlapModel(1.0, nan), std::invalid_argument);
}

}  // namespace
