#include "sim/log_stats.hpp"

#include <gtest/gtest.h>

#include "model/scenario.hpp"
#include "sim/failure_log.hpp"
#include "util/rng.hpp"

namespace {

using namespace dckpt::sim;
using dckpt::util::Exponential;
using dckpt::util::Weibull;
using dckpt::util::Xoshiro256ss;

std::vector<FailureEvent> synthetic_trace(const dckpt::util::Distribution& d,
                                          std::uint64_t nodes, double horizon,
                                          std::uint64_t seed = 1) {
  return generate_failure_trace(d, nodes, horizon, Xoshiro256ss(seed));
}

TEST(TraceGapsTest, FirstGapFromZero) {
  const auto gaps = trace_gaps({{2.0, 0}, {5.0, 1}, {5.5, 0}});
  ASSERT_EQ(gaps.size(), 3u);
  EXPECT_DOUBLE_EQ(gaps[0], 2.0);
  EXPECT_DOUBLE_EQ(gaps[1], 3.0);
  EXPECT_DOUBLE_EQ(gaps[2], 0.5);
}

TEST(TraceGapsTest, RejectsUnsorted) {
  EXPECT_THROW(trace_gaps({{2.0, 0}, {1.0, 0}}), std::invalid_argument);
}

TEST(AnalyzeTraceTest, BasicStatistics) {
  const auto stats = analyze_trace({{10.0, 0}, {20.0, 1}, {30.0, 0}});
  EXPECT_EQ(stats.events, 3u);
  EXPECT_DOUBLE_EQ(stats.span, 30.0);
  EXPECT_DOUBLE_EQ(stats.platform_mtbf, 10.0);
  EXPECT_EQ(stats.distinct_nodes, 2u);
  EXPECT_NEAR(stats.gap_cv, 0.0, 1e-12);  // perfectly regular gaps
}

TEST(AnalyzeTraceTest, RejectsTinyTraces) {
  EXPECT_THROW(analyze_trace({{1.0, 0}}), std::invalid_argument);
}

TEST(AnalyzeTraceTest, RecoversPlannedMtbf) {
  // 32 exponential nodes with node-mean 3200 -> platform MTBF 100.
  const auto trace =
      synthetic_trace(Exponential::from_mean(3200.0), 32, 50000.0);
  const auto stats = analyze_trace(trace);
  EXPECT_NEAR(stats.platform_mtbf, 100.0, 10.0);
  EXPECT_NEAR(stats.gap_cv, 1.0, 0.1);  // Poisson superposition
}

TEST(KsStatisticTest, PerfectFitIsSmall) {
  const auto trace =
      synthetic_trace(Exponential::from_mean(1000.0), 1, 500000.0);
  const auto gaps = trace_gaps(trace);
  const double ks =
      ks_statistic(gaps, Exponential::from_mean(
                             analyze_trace(trace).platform_mtbf));
  EXPECT_LT(ks, 0.05);
}

TEST(KsStatisticTest, WrongScaleIsLarge) {
  const auto trace =
      synthetic_trace(Exponential::from_mean(1000.0), 1, 500000.0);
  const double ks = ks_statistic(trace_gaps(trace),
                                 Exponential::from_mean(100.0));
  EXPECT_GT(ks, 0.3);
}

TEST(KsStatisticTest, RejectsEmpty) {
  EXPECT_THROW(ks_statistic({}, Exponential::from_mean(1.0)),
               std::invalid_argument);
}

TEST(FitExponentialTest, RecoversExponentialTrace) {
  const auto trace =
      synthetic_trace(Exponential::from_mean(800.0), 8, 200000.0);
  const auto fit = fit_exponential(trace);
  EXPECT_NEAR(fit.mean, 100.0, 10.0);
  EXPECT_LT(fit.ks_statistic, 0.05);
}

TEST(FitWeibullTest, RecoversShapeOnSingleStream) {
  // A single Weibull stream keeps its shape in the platform gaps.
  const auto trace =
      synthetic_trace(Weibull::from_mean(0.6, 500.0), 1, 1000000.0, 3);
  const auto fit = fit_weibull(trace);
  EXPECT_NEAR(fit.shape, 0.6, 0.08);
  EXPECT_NEAR(fit.mean, 500.0, 60.0);
  EXPECT_LT(fit.ks_statistic, 0.05);
}

TEST(FitWeibullTest, ExponentialTraceFitsShapeNearOne) {
  const auto trace =
      synthetic_trace(Exponential::from_mean(4000.0), 16, 400000.0, 5);
  const auto fit = fit_weibull(trace);
  EXPECT_NEAR(fit.shape, 1.0, 0.1);
}

TEST(FitComparisonTest, WeibullBeatsExponentialOnClusteredTrace) {
  // Sub-exponential single stream: Weibull must fit clearly better.
  const auto trace =
      synthetic_trace(Weibull::from_mean(0.5, 300.0), 1, 600000.0, 7);
  const auto exp_fit = fit_exponential(trace);
  const auto weib_fit = fit_weibull(trace);
  EXPECT_LT(weib_fit.ks_statistic, exp_fit.ks_statistic * 0.7);
}

TEST(FitComparisonTest, FittedMtbfPlugsIntoModel) {
  // End-to-end loop: trace -> fitted platform MTBF -> model parameters.
  const auto trace =
      synthetic_trace(Exponential::from_mean(32.0 * 900.0), 32, 300000.0, 9);
  const auto fit = fit_exponential(trace);
  auto params = dckpt::model::base_scenario().at_phi_ratio(0.25);
  params.mtbf = fit.mean;
  EXPECT_NO_THROW(params.validate());
  EXPECT_NEAR(params.mtbf, 900.0, 90.0);
}

}  // namespace
