// Integration tests: the discrete-event simulator must reproduce the
// analytical model (waste and risk) in the regimes where the first-order
// derivation holds. This is the cross-validation the paper performs between
// its formulas and "comprehensive simulations".
#include <gtest/gtest.h>

#include <cmath>

#include "model/model_api.hpp"
#include "sim/runner.hpp"

namespace {

using namespace dckpt::model;
using namespace dckpt::sim;

SimConfig config_for(Protocol protocol, double phi, double mtbf,
                     double t_base) {
  SimConfig config;
  config.protocol = protocol;
  config.params = base_scenario().params.with_overhead(phi).with_mtbf(mtbf);
  config.params.nodes = 12;
  config.period = optimal_period_closed_form(protocol, config.params).period;
  config.t_base = t_base;
  config.stop_on_fatal = false;  // waste statistics ignore fatality
  return config;
}

MonteCarloResult monte_carlo(const SimConfig& config, std::uint64_t trials,
                             std::uint64_t seed = 0xabc) {
  MonteCarloOptions options;
  options.trials = trials;
  options.threads = 2;
  options.seed = seed;
  return run_monte_carlo(config, options);
}

class SimVsModelWaste : public ::testing::TestWithParam<Protocol> {};

TEST_P(SimVsModelWaste, MonteCarloWasteTracksModel) {
  const Protocol protocol = GetParam();
  const auto config = config_for(protocol, 1.0, 2000.0, 50000.0);
  const double model_waste =
      waste(protocol, config.params, config.period);
  const auto mc = monte_carlo(config, 80);
  ASSERT_EQ(mc.diverged, 0u);
  const double sim_waste = mc.waste.mean();
  // First-order model vs exact simulation: agree within 12% relative
  // (and the Monte-Carlo CI must not exclude that band).
  EXPECT_NEAR(sim_waste, model_waste,
              0.12 * model_waste + 3.0 * mc.waste.standard_error())
      << protocol_name(protocol) << " model=" << model_waste
      << " sim=" << sim_waste;
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, SimVsModelWaste,
                         ::testing::Values(Protocol::DoubleBlocking,
                                           Protocol::DoubleNbl,
                                           Protocol::DoubleBof,
                                           Protocol::Triple,
                                           Protocol::TripleBof));

TEST(SimVsModelTest, FaultFreeLimitExactAtHugeMtbf) {
  for (Protocol protocol : kPaperProtocols) {
    auto config = config_for(protocol, 1.0, 1e12, 20000.0);
    config.period = 200.0;
    const auto mc = monte_carlo(config, 3);
    const double ff = waste_fault_free(protocol, config.params, 200.0);
    // No failures at M = 1e12: the only deviation is the final partial
    // period, bounded by P/t_makespan.
    EXPECT_NEAR(mc.waste.mean(), ff, 200.0 / 20000.0)
        << protocol_name(protocol);
  }
}

TEST(SimVsModelTest, WasteShapeTripleBeatsNblAtLowOverhead) {
  // Fig. 5's headline in simulation: at phi/R = 0.1, Triple's waste is well
  // below DoubleNBL's; at phi/R = 1 it is above.
  const auto low_nbl = monte_carlo(config_for(Protocol::DoubleNbl, 0.4,
                                              3000.0, 40000.0),
                                   60);
  const auto low_tri = monte_carlo(config_for(Protocol::Triple, 0.4, 3000.0,
                                              40000.0),
                                   60);
  EXPECT_LT(low_tri.waste.mean(), low_nbl.waste.mean());

  const auto hi_nbl = monte_carlo(config_for(Protocol::DoubleNbl, 4.0,
                                             3000.0, 40000.0),
                                  60);
  const auto hi_tri = monte_carlo(config_for(Protocol::Triple, 4.0, 3000.0,
                                             40000.0),
                                  60);
  EXPECT_GT(hi_tri.waste.mean(), hi_nbl.waste.mean());
}

TEST(SimVsModelTest, SuccessProbabilityTracksRiskModel) {
  // Pick a regime with a sizeable but non-saturated fatal probability.
  SimConfig config;
  config.protocol = Protocol::DoubleNbl;
  config.params = base_scenario().params.with_overhead(4.0);  // theta = R = 4
  config.params.nodes = 16;
  config.params.mtbf = 50.0;
  config.period = min_period(config.protocol, config.params) * 2.0;  // 20 s
  config.t_base = 500.0;
  config.stop_on_fatal = true;
  config.max_makespan = 1e6;

  MonteCarloOptions options;
  options.trials = 500;
  options.threads = 2;
  options.seed = 7;
  const auto mc = run_monte_carlo(config, options);

  // The model needs the *expected execution time* T; use the simulated mean
  // makespan of the surviving runs as the best available estimate.
  const double t_expected = mc.makespan.mean();
  const double model_success =
      success_probability(config.protocol, config.params, t_expected);
  const auto ci = mc.success.wilson_interval();
  // The first-order model should sit inside (a slightly widened) MC CI.
  const double slack = 0.05;
  EXPECT_GT(model_success, ci.lo - slack)
      << "sim=" << mc.success.estimate() << " model=" << model_success;
  EXPECT_LT(model_success, ci.hi + slack)
      << "sim=" << mc.success.estimate() << " model=" << model_success;
}

TEST(SimVsModelTest, TripleSurvivesWhereDoubleDies) {
  // Same brutal platform: the triple protocol's success probability must be
  // dramatically higher (Fig. 6b / 9b in simulation).
  SimConfig config;
  config.params = base_scenario().params.with_overhead(4.0);
  config.params.nodes = 18;
  config.params.mtbf = 40.0;
  config.t_base = 500.0;
  config.stop_on_fatal = true;
  config.max_makespan = 1e6;

  MonteCarloOptions options;
  options.trials = 300;
  options.threads = 2;

  config.protocol = Protocol::DoubleNbl;
  config.period = min_period(config.protocol, config.params) * 2.0;
  const auto nbl = run_monte_carlo(config, options);

  config.protocol = Protocol::Triple;
  config.period = min_period(config.protocol, config.params) * 2.0;
  const auto tri = run_monte_carlo(config, options);

  EXPECT_GT(tri.success.estimate(), nbl.success.estimate());
  // Failure odds at least 5x lower for Triple in this regime.
  const double nbl_fail = 1.0 - nbl.success.estimate();
  const double tri_fail = 1.0 - tri.success.estimate();
  ASSERT_GT(nbl_fail, 0.0);
  EXPECT_LT(tri_fail, nbl_fail / 5.0 + 0.02);
}

TEST(SimVsModelTest, WeibullShapeOneMatchesExponentialModel) {
  // PerNodeInjector with shape-1 Weibull inter-arrivals is n independent
  // Poisson processes, i.e. exactly the platform-exponential stream the
  // analytic model assumes. The waste must therefore track the model inside
  // the same tolerance band as the pooled exponential injector: 12% relative
  // (first-order model error) plus 3 standard errors (Monte-Carlo noise).
  const auto config = config_for(Protocol::DoubleNbl, 1.0, 2000.0, 50000.0);
  const double model_waste =
      waste(Protocol::DoubleNbl, config.params, config.period);
  MonteCarloOptions options;
  options.trials = 80;
  options.threads = 2;
  options.seed = 0xabc;
  options.weibull =
      dckpt::util::Weibull::from_mean(1.0, config.params.node_mtbf());
  const auto mc = run_monte_carlo(config, options);
  ASSERT_EQ(mc.diverged, 0u);
  EXPECT_NEAR(mc.waste.mean(), model_waste,
              0.12 * model_waste + 3.0 * mc.waste.standard_error())
      << "model=" << model_waste << " sim=" << mc.waste.mean();
}

TEST(SimVsModelTest, WeibullShapeBelowOneMatchesClusteredModel) {
  // Shape 0.7 clusters failures (decreasing hazard): bursts hit the same
  // period repeatedly, so waste drifts above the exponential closed form.
  // The clustered-failure model (model/nonexponential.hpp) corrects both the
  // failure count and the mid-period loss for the Weibull shape, which
  // tightens the validation band from the old 30% + 4 sigma (against the
  // exponential model) to 15% relative + 3 standard errors.
  const auto config = config_for(Protocol::DoubleNbl, 1.0, 2000.0, 50000.0);
  const double exp_waste =
      waste(Protocol::DoubleNbl, config.params, config.period);
  const double horizon = expected_makespan(Protocol::DoubleNbl, config.params,
                                           config.period, config.t_base);
  Extensions clustered;
  clustered.weibull = {0.7, horizon};
  const double model_waste =
      waste(Protocol::DoubleNbl, config.params, config.period, clustered);
  // The correction must move in the clustering direction (more waste)...
  EXPECT_GT(model_waste, exp_waste);
  // ...and reduce bit-identically to the exponential closed form at k = 1.
  clustered.weibull = {1.0, horizon};
  EXPECT_EQ(waste(Protocol::DoubleNbl, config.params, config.period, clustered),
            exp_waste);
  MonteCarloOptions options;
  options.trials = 80;
  options.threads = 2;
  options.seed = 0xabc;
  options.weibull =
      dckpt::util::Weibull::from_mean(0.7, config.params.node_mtbf());
  const auto mc = run_monte_carlo(config, options);
  ASSERT_EQ(mc.diverged, 0u);
  EXPECT_NEAR(mc.waste.mean(), model_waste,
              0.15 * model_waste + 3.0 * mc.waste.standard_error())
      << "clustered model=" << model_waste << " exponential=" << exp_waste
      << " sim=" << mc.waste.mean();
  // Clustering must show up in the spread: the Weibull stream's waste
  // variance should not collapse below the exponential stream's.
  const auto exp_mc = monte_carlo(config, 80);
  EXPECT_GT(mc.waste.stddev(), 0.5 * exp_mc.waste.stddev());
}

TEST(SimVsModelTest, VerifiedCheckpointWasteTracksSdcModel) {
  // Silent errors + verified checkpoints: the (V, k, P) first-order model of
  // model/sdc.hpp vs exact simulation. The model neglects strike/failure
  // interaction and retention exhaustion, so the band is 15% relative plus
  // 3 Monte-Carlo standard errors (the issue's acceptance band).
  for (const Protocol protocol : {Protocol::DoubleNbl, Protocol::Triple}) {
    auto config = config_for(protocol, 1.0, 3600.0, 50000.0);
    config.sdc = {2e-4, 10.0, 2};
    config.keep_last = 3;
    Extensions ext;
    ext.sdc = config.sdc;
    const double model_waste =
        waste(protocol, config.params, config.period, ext);
    ASSERT_LT(model_waste, 1.0) << protocol_name(protocol);
    const auto mc = monte_carlo(config, 80, 0x5dc);
    ASSERT_EQ(mc.diverged, 0u);
    EXPECT_NEAR(mc.waste.mean(), model_waste,
                0.15 * model_waste + 3.0 * mc.waste.standard_error())
        << protocol_name(protocol) << " model=" << model_waste
        << " sim=" << mc.waste.mean();
    // The strike campaign must actually have exercised the machinery.
    EXPECT_GT(mc.sdc_injected.mean(), 0.0) << protocol_name(protocol);
    EXPECT_GT(mc.verify_time.mean(), 0.0) << protocol_name(protocol);
  }
}

TEST(SimVsModelTest, FaultPredictionWasteTracksPredictorModel) {
  // Fault prediction + proactive checkpoints: the (p, r, w) first-order
  // model of model/predictor.hpp vs exact simulation. The model neglects
  // alarm/failure interaction and the skip-if-just-committed optimization,
  // so the band is 15% relative plus 3 Monte-Carlo standard errors (the
  // issue's acceptance band). Just-in-time (w = 0) and windowed predictors
  // both validate.
  for (const Protocol protocol : {Protocol::DoubleNbl, Protocol::Triple}) {
    auto config = config_for(protocol, 1.0, 3600.0, 50000.0);
    config.predictor = {0.7, 0.6, /*window=*/0.0, 5.0};  // just in time
    Extensions ext;
    ext.predictor = config.predictor;
    const double model_waste =
        waste(protocol, config.params, config.period, ext);
    ASSERT_LT(model_waste, 1.0) << protocol_name(protocol);
    const auto mc = monte_carlo(config, 80, 0x9ed);
    ASSERT_EQ(mc.diverged, 0u);
    EXPECT_NEAR(mc.waste.mean(), model_waste,
                0.15 * model_waste + 3.0 * mc.waste.standard_error())
        << protocol_name(protocol) << " model=" << model_waste
        << " sim=" << mc.waste.mean();
    // The predictor must actually have fired: alarms raised, proactive
    // commits taken, and most failures intercepted (recall 0.6).
    EXPECT_GT(mc.alarms_raised.mean(), 0.0) << protocol_name(protocol);
    EXPECT_GT(mc.proactive_ckpts.mean(), 0.0) << protocol_name(protocol);
    EXPECT_GT(mc.true_predictions.mean(), 0.0) << protocol_name(protocol);
  }
}

TEST(SimVsModelTest, WindowedPredictionWasteTracksPredictorModel) {
  // A positive prediction window: leads draw uniform in (0, w), only those
  // past C_p are handled (r_t = r (w - C_p)/w) and the handled failures
  // still lose the post-commit residual. Same 15% + 3 sigma band.
  auto config = config_for(Protocol::DoubleNbl, 1.0, 3600.0, 50000.0);
  config.predictor = {0.8, 0.7, 60.0, 10.0};
  Extensions ext;
  ext.predictor = config.predictor;
  const double model_waste =
      waste(Protocol::DoubleNbl, config.params, config.period, ext);
  ASSERT_LT(model_waste, 1.0);
  const auto mc = monte_carlo(config, 80, 0x9ee);
  ASSERT_EQ(mc.diverged, 0u);
  EXPECT_NEAR(mc.waste.mean(), model_waste,
              0.15 * model_waste + 3.0 * mc.waste.standard_error())
      << "model=" << model_waste << " sim=" << mc.waste.mean();
  // With w > C_p some predicted failures still land before the proactive
  // commit finishes: both scoreboard sides must be populated.
  EXPECT_GT(mc.true_predictions.mean(), 0.0);
  EXPECT_GT(mc.missed_failures.mean(), 0.0);
}

TEST(SimVsModelTest, PureVerificationOverheadTracksSdcModel) {
  // No strikes: the only SDC term left is V/(kP), which the simulator pays
  // exactly (one blocking verification every k periods). Tight band: the
  // model error is the same first-order one as the fail-stop test (12%),
  // since the verification factor itself is exact.
  auto config = config_for(Protocol::DoubleNbl, 1.0, 2000.0, 50000.0);
  config.sdc = {0.0, 15.0, 3};
  config.keep_last = 2;
  Extensions ext;
  ext.sdc = config.sdc;
  const double model_waste =
      waste(Protocol::DoubleNbl, config.params, config.period, ext);
  const auto mc = monte_carlo(config, 80);
  ASSERT_EQ(mc.diverged, 0u);
  EXPECT_NEAR(mc.waste.mean(), model_waste,
              0.12 * model_waste + 3.0 * mc.waste.standard_error())
      << "model=" << model_waste << " sim=" << mc.waste.mean();
  EXPECT_EQ(mc.sdc_injected.mean(), 0.0);
  EXPECT_EQ(mc.sdc_detected.mean(), 0.0);
}

TEST(SimVsModelTest, DifferentialCheckpointWasteTracksDcpModel) {
  // Differential checkpoints: the (d, B, K, h) model of model/dcp.hpp vs
  // the simulator's dcp-scaled geometry. The fault-free part of the
  // composition is exact (part 3 absorbs the shorter exchange, so the
  // period stays P); the failure terms carry the usual first-order error,
  // so the band is 15% relative plus 3 Monte-Carlo standard errors (the
  // issue's acceptance band).
  for (const Protocol protocol : {Protocol::DoubleNbl, Protocol::Triple}) {
    auto config = config_for(protocol, 1.0, 2000.0, 50000.0);
    config.dcp.stack_size = 6;
    config.dcp.dirty_fraction = 0.1;
    config.dcp.hash_overhead = 0.02;
    const double full_waste = waste(protocol, config.params, config.period);
    Extensions ext;
    ext.dcp = config.dcp;
    const double model_waste =
        waste(protocol, config.params, config.period, ext);
    // A mostly-clean workload must beat the full-image waste outright.
    ASSERT_LT(model_waste, full_waste) << protocol_name(protocol);
    const auto mc = monte_carlo(config, 80, 0xdc9);
    ASSERT_EQ(mc.diverged, 0u);
    EXPECT_NEAR(mc.waste.mean(), model_waste,
                0.15 * model_waste + 3.0 * mc.waste.standard_error())
        << protocol_name(protocol) << " model=" << model_waste
        << " sim=" << mc.waste.mean();
    EXPECT_LT(mc.waste.mean(), full_waste) << protocol_name(protocol);
  }
}

TEST(SimVsModelTest, FullyDirtyDcpReducesTowardTheFullImageModel) {
  // d = 1, h = 0: every delta ships the whole image, so the exchange parts
  // keep their full-image length and only the chain replay (g > 1) should
  // separate dcp from the baseline -- the simulated waste must not drop
  // below the full-image model's band.
  auto config = config_for(Protocol::DoubleNbl, 1.0, 2000.0, 50000.0);
  config.dcp.stack_size = 4;
  config.dcp.dirty_fraction = 1.0;
  Extensions ext;
  ext.dcp = config.dcp;
  const double model_waste =
      waste(Protocol::DoubleNbl, config.params, config.period, ext);
  EXPECT_GE(model_waste,
            waste(Protocol::DoubleNbl, config.params, config.period));
  const auto mc = monte_carlo(config, 80, 0xdca);
  ASSERT_EQ(mc.diverged, 0u);
  EXPECT_NEAR(mc.waste.mean(), model_waste,
              0.15 * model_waste + 3.0 * mc.waste.standard_error())
      << "model=" << model_waste << " sim=" << mc.waste.mean();
}

TEST(SimVsModelTest, WeibullFailuresStillComplete) {
  // The analytic model assumes exponential failures; the simulator also runs
  // Weibull (shape < 1, clustered) streams. Sanity: runs complete, waste is
  // higher-variance but in (0, 1).
  auto config = config_for(Protocol::DoubleNbl, 1.0, 2000.0, 30000.0);
  MonteCarloOptions options;
  options.trials = 40;
  options.threads = 2;
  options.weibull =
      dckpt::util::Weibull::from_mean(0.7, config.params.node_mtbf());
  const auto mc = run_monte_carlo(config, options);
  ASSERT_EQ(mc.diverged, 0u);
  EXPECT_GT(mc.waste.mean(), 0.0);
  EXPECT_LT(mc.waste.mean(), 1.0);
}

}  // namespace
