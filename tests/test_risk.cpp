#include "model/risk.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "model/scenario.hpp"

namespace {

using namespace dckpt::model;

Parameters params_with(double phi, double mtbf = 7 * 3600.0) {
  return base_scenario().params.with_overhead(phi).with_mtbf(mtbf);
}

TEST(RiskWindowTest, MatchesPaperDefinitions) {
  const auto p = params_with(1.0);  // D=0 R=4 theta=34
  EXPECT_DOUBLE_EQ(risk_window(Protocol::DoubleNbl, p), 0.0 + 4.0 + 34.0);
  EXPECT_DOUBLE_EQ(risk_window(Protocol::DoubleBof, p), 0.0 + 8.0);
  EXPECT_DOUBLE_EQ(risk_window(Protocol::DoubleBlocking, p), 8.0);
  EXPECT_DOUBLE_EQ(risk_window(Protocol::Triple, p), 4.0 + 68.0);
  EXPECT_DOUBLE_EQ(risk_window(Protocol::TripleBof, p), 12.0);
}

TEST(RiskWindowTest, ExaValues) {
  const auto p =
      exa_scenario().params.with_overhead(0.0).with_mtbf(3600.0);
  // theta = (1 + alpha) R = 660 at full overlap.
  EXPECT_DOUBLE_EQ(risk_window(Protocol::DoubleNbl, p), 60.0 + 60.0 + 660.0);
  EXPECT_DOUBLE_EQ(risk_window(Protocol::DoubleBof, p), 60.0 + 120.0);
  EXPECT_DOUBLE_EQ(risk_window(Protocol::Triple, p), 60.0 + 60.0 + 1320.0);
  EXPECT_DOUBLE_EQ(risk_window(Protocol::TripleBof, p), 60.0 + 180.0);
}

TEST(SuccessProbabilityTest, DoubleFormulaMatchesEquation11) {
  const double lambda = 1e-7, time = 1e5, risk = 100.0;
  const std::uint64_t n = 1000;
  const double per_pair = 2.0 * lambda * lambda * time * risk;
  const double expected = std::pow(1.0 - per_pair, n / 2.0);
  EXPECT_NEAR(success_probability_double(lambda, time, risk, n), expected,
              1e-12);
}

TEST(SuccessProbabilityTest, TripleFormulaMatchesEquation16) {
  const double lambda = 1e-6, time = 1e6, risk = 500.0;
  const std::uint64_t n = 999;
  const double per_triple = 6.0 * std::pow(lambda, 3) * time * risk * risk;
  const double expected = std::pow(1.0 - per_triple, n / 3.0);
  EXPECT_NEAR(success_probability_triple(lambda, time, risk, n), expected,
              1e-12);
}

TEST(SuccessProbabilityTest, BaseFormulaMatchesEquation12) {
  const double lambda = 1e-8, t_base = 1e6;
  const std::uint64_t n = 100;
  EXPECT_NEAR(success_probability_no_checkpoint(lambda, t_base, n),
              std::pow(1.0 - lambda * t_base, n), 1e-12);
}

TEST(SuccessProbabilityTest, DegenerateCases) {
  EXPECT_DOUBLE_EQ(success_probability_double(0.0, 1e9, 100.0, 10), 1.0);
  EXPECT_DOUBLE_EQ(success_probability_double(1e-9, 0.0, 100.0, 10), 1.0);
  // Hazard >= 1: certain failure at this order.
  EXPECT_DOUBLE_EQ(success_probability_double(1.0, 10.0, 10.0, 10), 0.0);
  EXPECT_THROW(success_probability_double(-1.0, 1.0, 1.0, 2),
               std::invalid_argument);
  EXPECT_THROW(success_probability_double(1e-9, -1.0, 1.0, 2),
               std::invalid_argument);
  EXPECT_THROW(success_probability_double(1e-9, 1.0, -1.0, 2),
               std::invalid_argument);
  EXPECT_THROW(success_probability_triple(-1e-9, 1.0, 1.0, 3),
               std::invalid_argument);
  EXPECT_THROW(success_probability_triple(1e-9, -1.0, 1.0, 3),
               std::invalid_argument);
  EXPECT_THROW(success_probability_triple(1e-9, 1.0, -1.0, 3),
               std::invalid_argument);
  EXPECT_THROW(success_probability_no_checkpoint(-1e-9, 1.0, 1),
               std::invalid_argument);
  EXPECT_THROW(success_probability_no_checkpoint(1e-9, -1.0, 1),
               std::invalid_argument);
}

TEST(SuccessProbabilityTest, ProtectionBeatsNoCheckpointing) {
  // Checkpointing must beat running bare for any sizeable platform/time.
  const auto p = params_with(1.0, 600.0);  // M = 10 min
  const double day = 86400.0;
  const double bare =
      success_probability_no_checkpoint(p.lambda(), day, p.nodes);
  for (Protocol protocol : kPaperProtocols) {
    EXPECT_GT(success_probability(protocol, p, day), bare)
        << protocol_name(protocol);
  }
}

TEST(SuccessProbabilityTest, PaperOrderingAtHighFailureRate) {
  // Fig. 6/9: Triple >> BOF > NBL for small M and long exploitation.
  const auto p = params_with(1.0, 60.0);  // M = 1 min
  const double life = 10.0 * 86400.0;     // 10 days
  const double nbl = success_probability(Protocol::DoubleNbl, p, life);
  const double bof = success_probability(Protocol::DoubleBof, p, life);
  const double tri = success_probability(Protocol::Triple, p, life);
  EXPECT_GT(bof, nbl);
  EXPECT_GT(tri, bof);
}

TEST(SuccessProbabilityTest, TripleGainIsOrdersOfMagnitude) {
  // Paper: "risk mitigation by orders of magnitude" for Triple vs NBL.
  const auto p = params_with(1.0, 60.0);
  const double life = 30.0 * 86400.0;
  const double nbl_fail =
      1.0 - success_probability(Protocol::DoubleNbl, p, life);
  const double tri_fail = 1.0 - success_probability(Protocol::Triple, p, life);
  ASSERT_GT(nbl_fail, 0.0);
  ASSERT_GT(tri_fail, 0.0);
  EXPECT_GT(nbl_fail / tri_fail, 100.0);
}

TEST(SuccessProbabilityTest, MonotoneInMtbf) {
  double previous = -1.0;
  for (double mtbf : {30.0, 60.0, 300.0, 1800.0}) {
    const auto p = params_with(1.0, mtbf);
    const double s = success_probability(Protocol::DoubleNbl, p, 86400.0);
    EXPECT_GT(s, previous) << "M=" << mtbf;
    previous = s;
  }
}

TEST(SuccessProbabilityTest, MonotoneDecreasingInMissionTime) {
  const auto p = params_with(1.0, 60.0);
  double previous = 2.0;
  for (double life : {3600.0, 86400.0, 10 * 86400.0, 30 * 86400.0}) {
    const double s = success_probability(Protocol::Triple, p, life);
    EXPECT_LT(s, previous);
    previous = s;
  }
}

TEST(FatalFailureRateTest, ConsistentWithSuccessProbability) {
  // For small hazards, 1 - P_success ~ rate * T.
  const auto p = params_with(1.0, 600.0);
  const double t = 3600.0;
  for (Protocol protocol : kPaperProtocols) {
    const double rate = fatal_failure_rate(protocol, p);
    const double failure_prob = 1.0 - success_probability(protocol, p, t);
    EXPECT_NEAR(failure_prob, rate * t, 0.01 * std::max(1e-30, rate * t))
        << protocol_name(protocol);
  }
}

TEST(FatalFailureRateTest, BofReducesNblExposure) {
  const auto p = params_with(0.5, 600.0);
  EXPECT_LT(fatal_failure_rate(Protocol::DoubleBof, p),
            fatal_failure_rate(Protocol::DoubleNbl, p));
}

TEST(FatalFailureRateTest, TripleBofReducesTripleExposure) {
  const auto p = params_with(0.5, 600.0);
  EXPECT_LT(fatal_failure_rate(Protocol::TripleBof, p),
            fatal_failure_rate(Protocol::Triple, p));
}

}  // namespace
