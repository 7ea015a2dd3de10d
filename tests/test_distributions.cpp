#include "util/distributions.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace dckpt::util;

/// Draws `n` samples and checks mean/variance against the analytic moments
/// within a z-bound derived from the CLT.
void check_moments(const Distribution& dist, int n = 400000) {
  Xoshiro256ss rng(0xfeedULL);
  RunningStats stats;
  for (int i = 0; i < n; ++i) {
    const double x = dist.sample(rng);
    ASSERT_GT(x, 0.0) << dist.name();
    ASSERT_TRUE(std::isfinite(x)) << dist.name();
    stats.add(x);
  }
  const double se = std::sqrt(dist.variance() / n);
  EXPECT_NEAR(stats.mean(), dist.mean(), 6.0 * se) << dist.name();
  // Variance converges slower; allow 10% relative error.
  EXPECT_NEAR(stats.variance(), dist.variance(), 0.10 * dist.variance())
      << dist.name();
}

/// Empirical CDF at a few probe points must match the analytic CDF.
void check_cdf(const Distribution& dist, int n = 200000) {
  Xoshiro256ss rng(0xbeefULL);
  const double probes[] = {0.5 * dist.mean(), dist.mean(), 2.0 * dist.mean()};
  int below[3] = {0, 0, 0};
  for (int i = 0; i < n; ++i) {
    const double x = dist.sample(rng);
    for (int j = 0; j < 3; ++j) {
      if (x <= probes[j]) ++below[j];
    }
  }
  for (int j = 0; j < 3; ++j) {
    const double expected = dist.cdf(probes[j]);
    EXPECT_NEAR(static_cast<double>(below[j]) / n, expected, 0.01)
        << dist.name() << " at probe " << probes[j];
  }
}

TEST(ExponentialTest, MomentsAndCdf) {
  const Exponential dist(0.25);
  EXPECT_DOUBLE_EQ(dist.mean(), 4.0);
  EXPECT_DOUBLE_EQ(dist.variance(), 16.0);
  check_moments(dist);
  check_cdf(dist);
}

TEST(ExponentialTest, FromMean) {
  const auto dist = Exponential::from_mean(100.0);
  EXPECT_DOUBLE_EQ(dist.mean(), 100.0);
  EXPECT_DOUBLE_EQ(dist.rate(), 0.01);
}

TEST(ExponentialTest, CdfBasics) {
  const Exponential dist(1.0);
  EXPECT_DOUBLE_EQ(dist.cdf(0.0), 0.0);
  EXPECT_DOUBLE_EQ(dist.cdf(-1.0), 0.0);
  EXPECT_NEAR(dist.cdf(1.0), 1.0 - std::exp(-1.0), 1e-12);
}

TEST(ExponentialTest, RejectsBadRate) {
  EXPECT_THROW(Exponential(0.0), std::invalid_argument);
  EXPECT_THROW(Exponential(-1.0), std::invalid_argument);
  EXPECT_THROW(Exponential::from_mean(0.0), std::invalid_argument);
}

TEST(WeibullTest, ShapeOneIsExponential) {
  const Weibull weibull(1.0, 5.0);
  EXPECT_NEAR(weibull.mean(), 5.0, 1e-12);
  EXPECT_NEAR(weibull.variance(), 25.0, 1e-9);
}

TEST(WeibullTest, MomentsSubExponentialShape) {
  const auto dist = Weibull::from_mean(0.7, 50.0);
  EXPECT_NEAR(dist.mean(), 50.0, 1e-9);
  check_moments(dist);
  check_cdf(dist);
}

TEST(WeibullTest, MomentsSuperExponentialShape) {
  const auto dist = Weibull::from_mean(2.0, 10.0);
  EXPECT_NEAR(dist.mean(), 10.0, 1e-9);
  check_moments(dist);
}

TEST(WeibullTest, RejectsBadParameters) {
  EXPECT_THROW(Weibull(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Weibull(1.0, 0.0), std::invalid_argument);
}

TEST(WeibullTest, FromMeanPreservesMeanAcrossEdgeShapes) {
  // from_mean solves scale = mean / Gamma(1 + 1/k). Shapes far from 1 push
  // Gamma(1 + 1/k) to extreme values (k = 0.2 -> Gamma(6) = 120, k = 0.1 ->
  // Gamma(11) = 3628800); the requested mean must survive the round trip.
  for (double shape : {0.1, 0.2, 0.5, 1.0, 2.0, 5.0}) {
    const auto dist = Weibull::from_mean(shape, 123.0);
    EXPECT_NEAR(dist.mean(), 123.0, 123.0 * 1e-12) << "shape=" << shape;
    EXPECT_GT(dist.scale(), 0.0) << "shape=" << shape;
    EXPECT_TRUE(std::isfinite(dist.variance())) << "shape=" << shape;
  }
}

TEST(WeibullTest, VerySmallShapeSamplesStayPositiveFinite) {
  // k = 0.2: (-ln u)^5 spans many orders of magnitude across the open unit
  // interval; every sample must stay strictly positive and finite (the
  // Distribution contract the simulator's injector relies on).
  const auto dist = Weibull::from_mean(0.2, 100.0);
  Xoshiro256ss rng(0x77);
  for (int i = 0; i < 20000; ++i) {
    const double x = dist.sample(rng);
    ASSERT_GT(x, 0.0);
    ASSERT_TRUE(std::isfinite(x));
  }
  // Heavy clustering signature: the median sits far below the mean.
  const double median = dist.scale() * std::pow(std::log(2.0), 1.0 / 0.2);
  EXPECT_LT(median, 0.1 * dist.mean());
}

TEST(WeibullTest, ShapeOneIsExactlyExponentialDistribution) {
  // k = 1 must reproduce Exponential(1/mean) as a distribution: identical
  // analytic moments and CDF, and the same inverse-CDF sample stream from
  // identical RNG state (both reduce to -mean * ln U, up to rounding in the
  // reciprocal rate -- hence DOUBLE_EQ, i.e. 4-ulp, not bitwise ==).
  const double mean = 24000.0;
  const auto weibull = Weibull::from_mean(1.0, mean);
  const auto exponential = Exponential::from_mean(mean);
  EXPECT_DOUBLE_EQ(weibull.mean(), exponential.mean());
  EXPECT_DOUBLE_EQ(weibull.variance(), exponential.variance());
  for (double x : {100.0, 5000.0, 24000.0, 100000.0}) {
    EXPECT_DOUBLE_EQ(weibull.cdf(x), exponential.cdf(x)) << "x=" << x;
  }
  Xoshiro256ss a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_DOUBLE_EQ(weibull.sample(a), exponential.sample(b));
  }
}

TEST(WeibullTest, SuperExponentialShapeConcentrates) {
  // k > 1 regularizes arrivals: variance strictly below the exponential of
  // the same mean (CV^2 < 1).
  const auto dist = Weibull::from_mean(3.0, 10.0);
  EXPECT_NEAR(dist.mean(), 10.0, 1e-9);
  EXPECT_LT(dist.variance(), 100.0);
  check_moments(dist);
}

TEST(DistributionTest, CloneIsIndependentAndEquivalent) {
  const auto dist = Weibull::from_mean(0.9, 30.0);
  const std::unique_ptr<Distribution> copy = dist.clone();
  EXPECT_EQ(copy->name(), dist.name());
  Xoshiro256ss a(1), b(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(dist.sample(a), copy->sample(b));
  }
}

}  // namespace
