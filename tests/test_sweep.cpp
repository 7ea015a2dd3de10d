#include "sim/sweep.hpp"

#include <gtest/gtest.h>

#include "model/scenario.hpp"
#include "model/waste.hpp"

namespace {

using namespace dckpt;
using namespace dckpt::sim;

SweepSpec small_spec() {
  SweepSpec spec;
  spec.protocols = {model::Protocol::DoubleNbl, model::Protocol::Triple};
  spec.mtbfs = {1200.0, 4800.0};
  spec.phi_ratios = {0.25, 1.0};
  spec.config.params = model::base_scenario().params;
  spec.config.params.nodes = 12;
  spec.t_base_in_mtbfs = 10.0;
  spec.trials = 20;
  spec.threads = 2;
  return spec;
}

TEST(SweepTest, ProducesOneRowPerFeasiblePoint) {
  const auto rows = run_sweep(small_spec());
  ASSERT_EQ(rows.size(), 8u);  // 2 protocols x 2 MTBFs x 2 ratios
  for (const auto& row : rows) {
    EXPECT_GT(row.period, 0.0);
    EXPECT_GT(row.model_waste, 0.0);
    EXPECT_LT(row.model_waste, 1.0);
    EXPECT_EQ(row.result.waste.count(), 20u);
  }
}

TEST(SweepTest, OrderIsLexicographic) {
  const auto rows = run_sweep(small_spec());
  ASSERT_EQ(rows.size(), 8u);
  EXPECT_EQ(rows[0].protocol, model::Protocol::DoubleNbl);
  EXPECT_DOUBLE_EQ(rows[0].mtbf, 1200.0);
  EXPECT_DOUBLE_EQ(rows[0].phi, 0.25 * 4.0);
  EXPECT_DOUBLE_EQ(rows[1].phi, 4.0);
  EXPECT_DOUBLE_EQ(rows[2].mtbf, 4800.0);
  EXPECT_EQ(rows[4].protocol, model::Protocol::Triple);
}

TEST(SweepTest, SimTracksModelAcrossTheGrid) {
  for (const auto& row : run_sweep(small_spec())) {
    EXPECT_NEAR(row.result.waste.mean(), row.model_waste,
                0.15 * row.model_waste +
                    3.0 * row.result.waste.standard_error())
        << model::protocol_name(row.protocol) << " M=" << row.mtbf
        << " phi=" << row.phi;
  }
}

TEST(SweepTest, InfeasiblePointsAreSkipped) {
  auto spec = small_spec();
  spec.mtbfs = {10.0, 1200.0};  // 10 s: no protocol makes progress
  const auto rows = run_sweep(spec);
  EXPECT_EQ(rows.size(), 4u);
  for (const auto& row : rows) EXPECT_DOUBLE_EQ(row.mtbf, 1200.0);
}

TEST(SweepTest, CustomPeriodFunctionIsUsed) {
  auto spec = small_spec();
  spec.mtbfs = {1200.0};
  spec.phi_ratios = {0.25};
  spec.period = [](model::Protocol, const model::Parameters&) {
    return 250.0;
  };
  const auto rows = run_sweep(spec);
  ASSERT_EQ(rows.size(), 2u);
  for (const auto& row : rows) EXPECT_DOUBLE_EQ(row.period, 250.0);
}

TEST(SweepTest, ProgressCallbackReportsEveryPoint) {
  auto spec = small_spec();
  std::size_t calls = 0;
  std::uint64_t last_trials = 0;
  spec.progress = [&](const SweepProgress& p) {
    ++calls;
    EXPECT_EQ(p.points_total, 8u);
    EXPECT_EQ(p.points_done + p.points_skipped, calls);
    EXPECT_GE(p.elapsed, 0.0);
    EXPECT_GE(p.point_elapsed, 0.0);
    EXPECT_GE(p.trials_done, last_trials);
    last_trials = p.trials_done;
    ASSERT_NE(p.point, nullptr);  // every point of this grid is feasible
    EXPECT_EQ(p.point->result.waste.count(), 20u);
  };
  const auto rows = run_sweep(spec);
  EXPECT_EQ(calls, 8u);
  EXPECT_EQ(rows.size(), 8u);
  EXPECT_EQ(last_trials, 8u * 20u);
}

TEST(SweepTest, ProgressReportsSkippedPoints) {
  auto spec = small_spec();
  spec.mtbfs = {10.0, 1200.0};  // 10 s: every protocol stalls
  std::size_t skipped = 0;
  spec.progress = [&](const SweepProgress& p) {
    skipped = p.points_skipped;
    if (p.point == nullptr) {
      EXPECT_GT(p.points_skipped, 0u);
    }
  };
  run_sweep(spec);
  EXPECT_EQ(skipped, 4u);
}

TEST(SweepTest, PeriodTheModelCannotRunIsSkipped) {
  // A 250 s period at a 10 s MTBF: the closed form would be infeasible,
  // but a custom period reaches the model, whose waste is 1 for both
  // protocols -- the point is skipped rather than simulated.
  auto spec = small_spec();
  spec.mtbfs = {10.0};
  spec.phi_ratios = {0.25};
  spec.period = [](model::Protocol, const model::Parameters&) {
    return 250.0;
  };
  std::size_t skipped = 0;
  spec.progress = [&](const SweepProgress& p) {
    skipped = p.points_skipped;
    EXPECT_EQ(p.point, nullptr);
  };
  EXPECT_TRUE(run_sweep(spec).empty());
  EXPECT_EQ(skipped, 2u);
}

TEST(SweepTest, WeibullAndPredictorColumnsAreEachAxisAlone) {
  auto spec = small_spec();
  spec.mtbfs = {4800.0};
  spec.weibull_shape = 0.7;
  spec.config.predictor.recall = 0.5;
  const auto rows = run_sweep(spec);
  ASSERT_EQ(rows.size(), 4u);
  for (const auto& row : rows) {
    SCOPED_TRACE(model::protocol_name(row.protocol));
    // The simulated config of this point, as run_sweep builds it.
    SimConfig config = spec.config;
    config.protocol = row.protocol;
    config.params = spec.config.params.with_mtbf(row.mtbf).with_overhead(
        row.phi);
    config.period = row.period;
    config.t_base = spec.t_base_in_mtbfs * row.mtbf;
    const auto axis_waste = [&](ModelAxis axis) {
      return model::waste(row.protocol, config.params, row.period,
                          axis_extensions(axis, config, spec.weibull_shape));
    };
    EXPECT_DOUBLE_EQ(row.weibull_shape, 0.7);
    EXPECT_EQ(row.model_waste_weibull, axis_waste(ModelAxis::kWeibull));
    EXPECT_EQ(row.model_waste_pred, axis_waste(ModelAxis::kPredictor));
    EXPECT_NE(row.model_waste_weibull, row.model_waste);
    EXPECT_NE(row.model_waste_pred, row.model_waste);
    EXPECT_EQ(row.model_waste_sdc, row.model_waste);
    EXPECT_EQ(row.model_waste_dcp, row.model_waste);
  }
  // The shape also reaches the failure sampler.
  spec.weibull_shape = 0.0;
  const auto exponential = run_sweep(spec);
  ASSERT_EQ(exponential.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_NE(rows[i].result.waste.mean(), exponential[i].result.waste.mean());
  }
}

TEST(SweepTest, MetricsSpecPropagatesToEveryPoint) {
  auto spec = small_spec();
  spec.metrics = MetricsSpec{};
  for (const auto& row : run_sweep(spec)) {
    ASSERT_TRUE(row.result.metrics.has_value());
    EXPECT_EQ(row.result.metrics->waste.total_count(),
              row.result.waste.count());
  }
}

TEST(SweepTest, DeterministicAcrossRuns) {
  const auto a = run_sweep(small_spec());
  const auto b = run_sweep(small_spec());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].result.waste.mean(), b[i].result.waste.mean());
  }
}

}  // namespace
