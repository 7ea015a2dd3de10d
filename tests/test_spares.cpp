#include "model/spares.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "model/period.hpp"
#include "model/scenario.hpp"

namespace {

using namespace dckpt::model;

TEST(ErlangCTest, SingleServerIsMM1) {
  // M/M/1: probability of waiting = rho.
  for (double rho : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(erlang_c(1, rho), rho, 1e-12);
  }
}

TEST(ErlangCTest, TwoServersClosedForm) {
  // M/M/2: C = 2 rho^2 / (1 + rho), with rho = a/2.
  const double a = 1.0;  // offered load
  const double rho = a / 2.0;
  const double expected = 2.0 * rho * rho / (1.0 + rho);
  EXPECT_NEAR(erlang_c(2, a), expected, 1e-12);
}

TEST(ErlangCTest, EdgeCases) {
  EXPECT_DOUBLE_EQ(erlang_c(4, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(erlang_c(4, 4.0), 1.0);   // saturated
  EXPECT_DOUBLE_EQ(erlang_c(4, 10.0), 1.0);  // overloaded
  EXPECT_THROW(erlang_c(0, 1.0), std::invalid_argument);
  EXPECT_THROW(erlang_c(2, -1.0), std::invalid_argument);
}

TEST(ErlangCTest, MoreServersWaitLess) {
  double previous = 2.0;
  for (std::uint64_t c = 2; c <= 16; c *= 2) {
    const double value = erlang_c(c, 1.5);
    EXPECT_LT(value, previous);
    previous = value;
  }
}

TEST(ExpectedWaitTest, MM1ClosedForm) {
  // M/M/1 wait: W = rho / (mu - lambda).
  SparePoolSpec spec;
  spec.spares = 1;
  spec.repair_time = 100.0;  // mu = 0.01
  const double platform_mtbf = 200.0;  // lambda = 0.005, rho = 0.5
  const double expected = 0.5 / (0.01 - 0.005);
  EXPECT_NEAR(expected_replacement_wait(spec, platform_mtbf), expected, 1e-9);
}

TEST(ExpectedWaitTest, UnstablePoolRejected) {
  SparePoolSpec spec;
  spec.spares = 1;
  spec.repair_time = 1000.0;
  EXPECT_THROW(expected_replacement_wait(spec, 500.0), std::invalid_argument);
}

TEST(ExpectedWaitTest, RejectsNonPositivePlatformMtbf) {
  SparePoolSpec spec;
  spec.spares = 4;
  spec.repair_time = 600.0;
  for (const double mtbf : {0.0, -600.0, std::nan("")}) {
    EXPECT_THROW(expected_replacement_wait(spec, mtbf), std::invalid_argument)
        << mtbf;
  }
}

TEST(ExpectedWaitTest, GenerousPoolWaitsNearZero) {
  SparePoolSpec spec;
  spec.spares = 64;
  spec.repair_time = 600.0;
  EXPECT_LT(expected_replacement_wait(spec, 600.0), 1e-6);
}

TEST(EffectiveDowntimeTest, AddsDetection) {
  SparePoolSpec spec;
  spec.spares = 64;
  spec.repair_time = 600.0;
  spec.detection = 42.0;
  EXPECT_NEAR(effective_downtime(spec, 600.0), 42.0, 1e-3);
}

TEST(WithSparePoolTest, InjectsDowntimeIntoParameters) {
  SparePoolSpec spec;
  spec.spares = 2;
  spec.repair_time = 300.0;
  spec.detection = 10.0;
  const auto base = base_scenario().at_phi_ratio(0.25).with_mtbf(600.0);
  const auto params = with_spare_pool(base, spec);
  EXPECT_GT(params.downtime, 10.0);  // detection + nonzero wait
  EXPECT_LT(params.downtime, 10.0 + 300.0);
  // Other fields untouched.
  EXPECT_DOUBLE_EQ(params.mtbf, base.mtbf);
  EXPECT_DOUBLE_EQ(params.overhead, base.overhead);
}

TEST(SparePoolSpecTest, Validation) {
  SparePoolSpec spec;
  spec.spares = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = SparePoolSpec{};
  spec.repair_time = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = SparePoolSpec{};
  spec.detection = -1.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(SparePoolIntegrationTest, SmallerPoolMeansMoreWaste) {
  // Downstream effect: meaner spare pools inflate D, hence the waste.
  // Base scenario, M = 10 min, repairs take 30 min (offered load 3).
  const auto base = base_scenario().at_phi_ratio(0.25).with_mtbf(600.0);
  SparePoolSpec rich;
  rich.spares = 32;
  rich.repair_time = 1800.0;
  SparePoolSpec poor;
  poor.spares = 5;
  poor.repair_time = 1800.0;
  const double rich_waste = waste_at_optimal_period(
      Protocol::DoubleNbl, with_spare_pool(base, rich));
  const double poor_waste = waste_at_optimal_period(
      Protocol::DoubleNbl, with_spare_pool(base, poor));
  EXPECT_GT(poor_waste, rich_waste);
}

}  // namespace
