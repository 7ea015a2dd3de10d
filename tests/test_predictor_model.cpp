// Unit tests for the fault-prediction waste model (model/predictor.hpp):
// spec validation, reduction to the fail-stop model, the handled-recall
// window discount, factor composition, monotonicity in recall and precision,
// saturation, and the 1/sqrt(1 - r_t) stretch of the numeric period optimum.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "model/model_api.hpp"

namespace {

using namespace dckpt;
using model::Parameters;
using model::PredictorSpec;
using model::Protocol;

Parameters pred_params(double mtbf = 3600.0) {
  return model::base_scenario().at_phi_ratio(0.25).with_mtbf(mtbf);
}

/// The predictor axis alone.
model::Extensions predictor_only(const PredictorSpec& spec) {
  model::Extensions ext;
  ext.predictor = spec;
  return ext;
}

TEST(PredictorSpecTest, ValidateAcceptsReasonableSpecs) {
  EXPECT_NO_THROW((PredictorSpec{0.8, 0.5, 300.0, 10.0}.validate()));
  EXPECT_NO_THROW((PredictorSpec{1.0, 0.0, 0.0, 0.0}.validate()));
  // Perfect just-in-time predictor.
  EXPECT_NO_THROW((PredictorSpec{1.0, 1.0, 0.0, 5.0}.validate()));
}

TEST(PredictorSpecTest, ValidateRejectsBadSpecs) {
  EXPECT_THROW((PredictorSpec{0.8, -0.1, 0.0, 0.0}.validate()),
               std::invalid_argument);
  EXPECT_THROW((PredictorSpec{0.8, 1.1, 0.0, 0.0}.validate()),
               std::invalid_argument);
  EXPECT_THROW((PredictorSpec{-0.2, 0.5, 0.0, 0.0}.validate()),
               std::invalid_argument);
  EXPECT_THROW((PredictorSpec{1.2, 0.5, 0.0, 0.0}.validate()),
               std::invalid_argument);
  // Recall without precision: the false-alarm rate r(1-p)/p diverges.
  EXPECT_THROW((PredictorSpec{0.0, 0.5, 0.0, 0.0}.validate()),
               std::invalid_argument);
  EXPECT_THROW((PredictorSpec{0.8, 0.5, -1.0, 0.0}.validate()),
               std::invalid_argument);
  EXPECT_THROW((PredictorSpec{0.8, 0.5, 0.0, -1.0}.validate()),
               std::invalid_argument);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((PredictorSpec{0.8, 0.5, inf, 0.0}.validate()),
               std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((PredictorSpec{nan, 0.5, 0.0, 0.0}.validate()),
               std::invalid_argument);
}

TEST(PredictorModelTest, EffectiveRecallDiscountsShortWindows) {
  // Just-in-time limit (w == 0): every predicted failure is handled.
  EXPECT_DOUBLE_EQ(model::effective_recall({0.8, 0.6, 0.0, 10.0}), 0.6);
  // Wide window: lead ~ U(0, w), only leads >= C_p save the work.
  EXPECT_DOUBLE_EQ(model::effective_recall({0.8, 0.6, 100.0, 25.0}),
                   0.6 * 0.75);
  // Window narrower than the proactive cost: nothing is handled in time.
  EXPECT_DOUBLE_EQ(model::effective_recall({0.8, 0.6, 5.0, 25.0}), 0.0);
}

TEST(PredictorModelTest, ReducesToFailStopWasteWhenDisabled) {
  const auto params = pred_params();
  const PredictorSpec off{0.7, 0.0, 60.0, 10.0};
  for (const Protocol protocol : model::kAllProtocols) {
    const double period =
        model::optimal_period_closed_form(protocol, params).period;
    EXPECT_DOUBLE_EQ(
        model::waste(protocol, params, period, predictor_only(off)),
        model::waste(protocol, params, period))
        << model::protocol_name(protocol);
  }
}

TEST(PredictorModelTest, FactorsComposeAsDocumented) {
  // Check the closed form literally: the fail-stop factor at the effective
  // MTBF M/(1 - r_t), times the alarm-cost and handled-loss factors.
  const auto params = pred_params();
  const Protocol protocol = Protocol::DoubleNbl;
  const PredictorSpec spec{0.7, 0.6, 120.0, 20.0};
  const double period = 150.0;
  const double r_t = model::effective_recall(spec);
  const double base = model::waste(
      protocol, params.with_mtbf(params.mtbf / (1.0 - r_t)), period);
  const double lambda = 1.0 / params.mtbf;
  const double alarms =
      lambda * (spec.recall / spec.precision) * spec.proactive_cost;
  const double handled =
      lambda * r_t *
      (params.downtime +
       model::recovery_transfers(protocol) * params.recovery() +
       (spec.window - spec.proactive_cost) / 2.0);
  const double expected = 1.0 - (1.0 - base) * (1.0 - alarms) * (1.0 - handled);
  EXPECT_NEAR(model::waste(protocol, params, period, predictor_only(spec)),
              expected, 1e-12);
}

TEST(PredictorModelTest, GoodPredictorReducesWasteAtLongPeriods) {
  // At periods past the fail-stop optimum, handling most failures for a
  // cheap proactive cost must beat the no-predictor baseline.
  const auto params = pred_params();
  const Protocol protocol = Protocol::DoubleNbl;
  const PredictorSpec spec{0.95, 0.9, 0.0, 1.0};  // near-perfect, cheap
  const double period =
      2.0 * model::optimal_period_closed_form(protocol, params).period;
  EXPECT_LT(model::waste(protocol, params, period, predictor_only(spec)),
            model::waste(protocol, params, period));
}

TEST(PredictorModelTest, MonotoneInPrecision) {
  // Lower precision means more false alarms at the same recall: waste can
  // only grow as p falls.
  const auto params = pred_params();
  const double period = 150.0;
  double previous = 0.0;
  for (const double precision : {1.0, 0.8, 0.5, 0.2}) {
    const double w = model::waste(Protocol::DoubleNbl, params, period,
                                  predictor_only({precision, 0.5, 0.0, 10.0}));
    EXPECT_GE(w, previous - 1e-15) << "precision " << precision;
    previous = w;
  }
}

TEST(PredictorModelTest, SaturatesAtOne) {
  const auto params = pred_params(600.0);
  // Proactive checkpoints longer than the mean time between alarms: the
  // alarm factor alone exceeds the budget, so the model clamps.
  const double w = model::waste(Protocol::DoubleNbl, params, 150.0,
                                predictor_only({0.1, 1.0, 0.0, 300.0}));
  EXPECT_DOUBLE_EQ(w, 1.0);
}

TEST(PredictorModelTest, OptimalPeriodBeatsNeighboringPeriods) {
  const auto params = pred_params();
  const PredictorSpec spec{0.8, 0.6, 0.0, 5.0};
  for (const Protocol protocol :
       {Protocol::DoubleNbl, Protocol::DoubleBof, Protocol::Triple}) {
    const auto opt =
        model::optimal_period_numeric(protocol, params, predictor_only(spec));
    ASSERT_TRUE(opt.feasible) << model::protocol_name(protocol);
    const double at_opt =
        model::waste(protocol, params, opt.period, predictor_only(spec));
    EXPECT_NEAR(at_opt, opt.waste, 1e-9);
    for (const double factor : {0.8, 1.25}) {
      const double neighbor = opt.period * factor;
      if (neighbor < model::min_period(protocol, params)) continue;
      EXPECT_LE(at_opt, model::waste(protocol, params, neighbor,
                                     predictor_only(spec)) +
                            1e-12)
          << model::protocol_name(protocol) << " factor " << factor;
    }
  }
}

TEST(PredictorModelTest, OptimumStretchesLikeInverseSqrtSurvivors) {
  // The papers' headline closed form: handled failures stop paying
  // rollbacks, so T_opt grows like T_opt(0) / sqrt(1 - r_t). The numeric
  // optimum must track that scaling within a loose band (the alarm and
  // handled-loss factors perturb it slightly).
  const auto params = pred_params();
  const Protocol protocol = Protocol::DoubleNbl;
  const PredictorSpec spec{1.0, 0.75, 0.0, 0.0};  // pure-recall predictor
  const auto base = model::optimal_period_closed_form(protocol, params);
  const auto pred =
      model::optimal_period_numeric(protocol, params, predictor_only(spec));
  ASSERT_TRUE(base.feasible && pred.feasible);
  const double stretch = pred.period / base.period;
  const double ideal = 1.0 / std::sqrt(1.0 - model::effective_recall(spec));
  EXPECT_GT(stretch, 1.05);  // strictly longer than fail-stop
  EXPECT_NEAR(stretch, ideal, 0.35 * ideal);
}

}  // namespace
