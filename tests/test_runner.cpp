#include "sim/runner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <optional>
#include <string>

#include "model/scenario.hpp"

namespace {

using namespace dckpt::sim;
using dckpt::model::Protocol;

SimConfig quick_config() {
  SimConfig config;
  config.protocol = Protocol::DoubleNbl;
  config.params = dckpt::model::base_scenario().params.with_overhead(1.0);
  config.params.nodes = 12;
  config.params.mtbf = 500.0;
  config.period = 100.0;
  config.t_base = 5000.0;
  config.stop_on_fatal = false;
  return config;
}

TEST(MonteCarloTest, AggregatesRequestedTrials) {
  MonteCarloOptions options;
  options.trials = 50;
  options.threads = 2;
  const auto result = run_monte_carlo(quick_config(), options);
  EXPECT_EQ(result.waste.count() + result.diverged, 50u);
  EXPECT_EQ(result.success.trials(), result.waste.count());
  EXPECT_GT(result.waste.mean(), 0.0);
  EXPECT_LT(result.waste.mean(), 1.0);
  EXPECT_GT(result.failures.mean(), 0.0);
}

TEST(MonteCarloTest, DeterministicAcrossThreadCounts) {
  MonteCarloOptions one_thread;
  one_thread.trials = 40;
  one_thread.threads = 1;
  one_thread.seed = 99;
  MonteCarloOptions four_threads = one_thread;
  four_threads.threads = 4;
  const auto a = run_monte_carlo(quick_config(), one_thread);
  const auto b = run_monte_carlo(quick_config(), four_threads);
  EXPECT_DOUBLE_EQ(a.waste.mean(), b.waste.mean());
  EXPECT_DOUBLE_EQ(a.makespan.mean(), b.makespan.mean());
  EXPECT_EQ(a.success.successes(), b.success.successes());
}

TEST(MonteCarloTest, DifferentSeedsDiffer) {
  MonteCarloOptions options;
  options.trials = 30;
  options.threads = 2;
  options.seed = 1;
  const auto a = run_monte_carlo(quick_config(), options);
  options.seed = 2;
  const auto b = run_monte_carlo(quick_config(), options);
  EXPECT_NE(a.makespan.mean(), b.makespan.mean());
}

TEST(MonteCarloTest, WeibullOptionUsesPerNodeStreams) {
  MonteCarloOptions options;
  options.trials = 20;
  options.threads = 2;
  options.weibull = dckpt::util::Weibull::from_mean(
      0.7, quick_config().params.node_mtbf());
  const auto result = run_monte_carlo(quick_config(), options);
  EXPECT_EQ(result.waste.count() + result.diverged, 20u);
  EXPECT_GT(result.failures.mean(), 0.0);
}

TEST(MonteCarloTest, SharedPoolOverload) {
  dckpt::util::ThreadPool pool(2);
  MonteCarloOptions options;
  options.trials = 10;
  const auto a = run_monte_carlo(quick_config(), options, pool);
  const auto b = run_monte_carlo(quick_config(), options, pool);
  EXPECT_DOUBLE_EQ(a.waste.mean(), b.waste.mean());
}

TEST(MonteCarloTest, MetricsDisabledByDefault) {
  MonteCarloOptions options;
  options.trials = 10;
  options.threads = 2;
  const auto result = run_monte_carlo(quick_config(), options);
  EXPECT_FALSE(result.metrics.has_value());
  EXPECT_EQ(result.risk_time.count(), 10u);
  EXPECT_GT(result.risk_time.mean(), 0.0);
}

TEST(MonteCarloTest, MetricsHistogramsCoverEveryTrial) {
  MonteCarloOptions options;
  options.trials = 50;
  options.threads = 2;
  options.metrics = MetricsSpec{};
  const auto result = run_monte_carlo(quick_config(), options);
  ASSERT_TRUE(result.metrics.has_value());
  const std::uint64_t completed = options.trials - result.diverged;
  EXPECT_EQ(result.metrics->waste.total_count(), completed);
  EXPECT_EQ(result.metrics->slowdown.total_count(), completed);
  EXPECT_EQ(result.metrics->failures.total_count(), completed);
  EXPECT_EQ(result.metrics->risk_fraction.total_count(), completed);
  // Waste and risk fraction live in [0, 1): nothing should leak out of
  // range, and nothing can be non-finite for completed trials.
  EXPECT_EQ(result.metrics->waste.underflow(), 0u);
  EXPECT_EQ(result.metrics->waste.overflow(), 0u);
  EXPECT_EQ(result.metrics->waste.nonfinite(), 0u);
  EXPECT_EQ(result.metrics->risk_fraction.nonfinite(), 0u);
  // Histogram mass should agree with the scalar stats.
  EXPECT_NEAR(result.metrics->waste.quantile(0.5), result.waste.mean(),
              3.0 * result.waste.stddev() + 1.0 / 64.0);
}

TEST(MonteCarloTest, MetricsSpecIsValidated) {
  MonteCarloOptions options;
  options.trials = 5;
  options.metrics = MetricsSpec{};
  options.metrics->bins = 0;
  EXPECT_THROW(run_monte_carlo(quick_config(), options),
               std::invalid_argument);
  EXPECT_NO_THROW(MetricsSpec{}.validate());
  for (const double slowdown : {1.0, 0.5, std::nan("")}) {
    MetricsSpec spec;
    spec.max_slowdown = slowdown;
    EXPECT_THROW(spec.validate(), std::invalid_argument) << slowdown;
  }
  for (const double failures : {0.0, -1.0, std::nan("")}) {
    MetricsSpec spec;
    spec.max_failures = failures;
    EXPECT_THROW(spec.validate(), std::invalid_argument) << failures;
  }
}

TEST(MonteCarloTest, EngineFromEnvironmentNamesAnEngineOrFallsBack) {
  // DCKPT_ENGINE picks the default engine; anything else keeps the
  // fallback. Restores the variable: CI runs the suite under it.
  const char* saved = std::getenv("DCKPT_ENGINE");
  const std::optional<std::string> original =
      saved ? std::optional<std::string>(saved) : std::nullopt;
  ::unsetenv("DCKPT_ENGINE");
  EXPECT_EQ(engine_from_env(SimEngine::kScalar), SimEngine::kScalar);
  EXPECT_EQ(engine_from_env(), SimEngine::kBatched);
  ::setenv("DCKPT_ENGINE", "scalar", 1);
  EXPECT_EQ(engine_from_env(SimEngine::kBatched), SimEngine::kScalar);
  ::setenv("DCKPT_ENGINE", "batched", 1);
  EXPECT_EQ(engine_from_env(SimEngine::kScalar), SimEngine::kBatched);
  ::setenv("DCKPT_ENGINE", "Scalar", 1);  // names are case-sensitive
  EXPECT_EQ(engine_from_env(SimEngine::kBatched), SimEngine::kBatched);
  if (original) {
    ::setenv("DCKPT_ENGINE", original->c_str(), 1);
  } else {
    ::unsetenv("DCKPT_ENGINE");
  }
}

TEST(MonteCarloTest, DegenerateTrialsAreCountedNotRecorded) {
  MonteCarloMetrics metrics{MetricsSpec{}};
  TrialResult no_work;  // t_base <= 0: slowdown/risk ratios are undefined
  no_work.t_base = 0.0;
  no_work.makespan = 100.0;
  metrics.add(no_work);
  TrialResult no_time;  // makespan <= 0: same story
  no_time.t_base = 50.0;
  no_time.makespan = 0.0;
  metrics.add(no_time);
  EXPECT_EQ(metrics.degenerate, 2u);
  // Neither trial may leak a sentinel 0.0 into any histogram: the old bug
  // recorded slowdown = 0 which landed in the underflow bucket (range
  // starts at 1.0) and skewed every quantile of small campaigns.
  EXPECT_EQ(metrics.waste.total_count(), 0u);
  EXPECT_EQ(metrics.slowdown.total_count(), 0u);
  EXPECT_EQ(metrics.slowdown.underflow(), 0u);
  EXPECT_EQ(metrics.risk_fraction.total_count(), 0u);
  EXPECT_EQ(metrics.failures.total_count(), 0u);

  MonteCarloMetrics other{MetricsSpec{}};
  TrialResult good;
  good.t_base = 50.0;
  good.makespan = 60.0;
  other.add(good);
  other.merge(metrics);  // degenerate counts survive chunk merges
  EXPECT_EQ(other.degenerate, 2u);
  EXPECT_EQ(other.slowdown.total_count(), 1u);
}

TEST(MonteCarloTest, ZeroTrialsYieldEmptyResult) {
  MonteCarloOptions options;
  options.trials = 0;
  options.metrics = MetricsSpec{};
  const auto result = run_monte_carlo(quick_config(), options);
  EXPECT_EQ(result.waste.count(), 0u);
  EXPECT_EQ(result.success.trials(), 0u);
  EXPECT_EQ(result.diverged, 0u);
  ASSERT_TRUE(result.metrics.has_value());
  EXPECT_EQ(result.metrics->waste.total_count(), 0u);
  EXPECT_EQ(result.kernel.lanes, 0u);

  // The pool-reusing overload must agree (it once indexed partial[0] out of
  // an empty chunk vector when trials == 0).
  dckpt::util::ThreadPool pool(2);
  const auto pooled = run_monte_carlo(quick_config(), options, pool);
  EXPECT_EQ(pooled.waste.count(), 0u);
  EXPECT_EQ(pooled.success.trials(), 0u);
  ASSERT_TRUE(pooled.metrics.has_value());
  EXPECT_EQ(pooled.metrics->slowdown.total_count(), 0u);
}

TEST(MonteCarloTest, FatalRunsCountAgainstSuccess) {
  auto config = quick_config();
  config.params.mtbf = 20.0;  // brutal failure rate: fatalities happen
  config.t_base = 2000.0;
  config.stop_on_fatal = true;
  config.max_makespan = 1e7;
  MonteCarloOptions options;
  options.trials = 60;
  options.threads = 2;
  const auto result = run_monte_carlo(config, options);
  EXPECT_LT(result.success.estimate(), 1.0);
}

}  // namespace
