// Unit tests for the verified-checkpoint SDC waste model (model/sdc.hpp):
// spec validation, reduction to the fail-stop model, factor composition,
// monotonicity in the strike rate and verification cost, saturation, the
// protocol-dependent rollback transfer, and the numeric period optimum.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "model/model_api.hpp"

namespace {

using namespace dckpt;
using model::Parameters;
using model::Protocol;
using model::SdcSpec;

Parameters sdc_params(double mtbf = 3600.0) {
  return model::base_scenario().at_phi_ratio(0.25).with_mtbf(mtbf);
}

/// The silent-error axis alone.
model::Extensions sdc_only(const SdcSpec& spec) {
  model::Extensions ext;
  ext.sdc = spec;
  return ext;
}

TEST(SdcSpecTest, ValidateAcceptsReasonableSpecs) {
  EXPECT_NO_THROW((SdcSpec{1e-4, 10.0, 2}.validate()));
  EXPECT_NO_THROW((SdcSpec{0.0, 0.0, 1}.validate()));
}

TEST(SdcSpecTest, ValidateRejectsBadSpecs) {
  EXPECT_THROW((SdcSpec{-1e-4, 10.0, 2}.validate()), std::invalid_argument);
  EXPECT_THROW((SdcSpec{1e-4, -1.0, 2}.validate()), std::invalid_argument);
  EXPECT_THROW((SdcSpec{1e-4, 10.0, 0}.validate()), std::invalid_argument);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((SdcSpec{inf, 10.0, 2}.validate()), std::invalid_argument);
  EXPECT_THROW((SdcSpec{1e-4, inf, 2}.validate()), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((SdcSpec{nan, 10.0, 2}.validate()), std::invalid_argument);
}

TEST(SdcModelTest, ReducesToFailStopWasteWhenDisabled) {
  const auto params = sdc_params();
  const SdcSpec off{0.0, 0.0, 3};
  for (const Protocol protocol : model::kAllProtocols) {
    const double period =
        model::optimal_period_closed_form(protocol, params).period;
    EXPECT_DOUBLE_EQ(model::waste(protocol, params, period, sdc_only(off)),
                     model::waste(protocol, params, period))
        << model::protocol_name(protocol);
  }
}

TEST(SdcModelTest, FactorsComposeAsDocumented) {
  // Check the Sec. 8 closed form literally: the implementation must be the
  // three-factor product, not an ad-hoc sum of penalties.
  const auto params = sdc_params();
  const Protocol protocol = Protocol::DoubleNbl;
  const SdcSpec spec{2e-4, 10.0, 2};
  const double period = 150.0;
  const double w0 = model::waste(protocol, params, period);
  const double verify_fraction =
      spec.verify_cost /
      (static_cast<double>(spec.verify_every) * period);
  const double loss = model::recovery_transfers(protocol) * params.recovery() +
                      (static_cast<double>(spec.verify_every) + 1.0) *
                          period / 2.0;
  const double expected =
      1.0 - (1.0 - w0) * (1.0 - verify_fraction) * (1.0 - spec.rate * loss);
  EXPECT_NEAR(model::waste(protocol, params, period, sdc_only(spec)), expected,
              1e-12);
}

TEST(SdcModelTest, MonotoneInRateAndCost) {
  const auto params = sdc_params();
  const double period = 150.0;
  double previous = 0.0;
  for (const double rate : {0.0, 1e-5, 1e-4, 1e-3}) {
    const double w = model::waste(Protocol::DoubleNbl, params, period,
                                  sdc_only({rate, 10.0, 2}));
    EXPECT_GE(w, previous);
    previous = w;
  }
  previous = 0.0;
  for (const double cost : {0.0, 5.0, 20.0, 60.0}) {
    const double w = model::waste(Protocol::DoubleNbl, params, period,
                                  sdc_only({1e-4, cost, 2}));
    EXPECT_GE(w, previous);
    previous = w;
  }
}

TEST(SdcModelTest, SaturatesAtOne) {
  const auto params = sdc_params();
  // Strike every few seconds: the expected loss per interval exceeds the
  // interval, so the model must clamp instead of going negative or above 1.
  const double w = model::waste(Protocol::DoubleNbl, params, 150.0,
                                sdc_only({0.5, 10.0, 2}));
  EXPECT_DOUBLE_EQ(w, 1.0);
  // Verification longer than the interval it protects: same clamp.
  const double wv = model::waste(Protocol::DoubleNbl, params, 150.0,
                                 sdc_only({1e-5, 400.0, 2}));
  EXPECT_DOUBLE_EQ(wv, 1.0);
}

TEST(SdcModelTest, RecoveryCostTracksProtocolBlocking) {
  // A verified rollback pays the fail-stop rollback's R transfers.
  const auto params = sdc_params();
  const double r = params.recovery();
  const auto rollback = [&](Protocol protocol) {
    return model::recovery_transfers(protocol) * params.recovery();
  };
  EXPECT_DOUBLE_EQ(rollback(Protocol::DoubleNbl), r);
  EXPECT_DOUBLE_EQ(rollback(Protocol::Triple), r);
  EXPECT_DOUBLE_EQ(rollback(Protocol::DoubleBof), 2.0 * r);
  EXPECT_DOUBLE_EQ(rollback(Protocol::DoubleBlocking), 2.0 * r);
  EXPECT_DOUBLE_EQ(rollback(Protocol::TripleBof), 3.0 * r);
}

TEST(SdcModelTest, OptimalPeriodBeatsNeighboringPeriods) {
  const auto params = sdc_params();
  const SdcSpec spec{2e-4, 10.0, 2};
  for (const Protocol protocol :
       {Protocol::DoubleNbl, Protocol::DoubleBof, Protocol::Triple}) {
    const auto opt =
        model::optimal_period_numeric(protocol, params, sdc_only(spec));
    ASSERT_TRUE(opt.feasible) << model::protocol_name(protocol);
    const double at_opt =
        model::waste(protocol, params, opt.period, sdc_only(spec));
    EXPECT_NEAR(at_opt, opt.waste, 1e-9);
    for (const double factor : {0.8, 1.25}) {
      const double neighbor = opt.period * factor;
      if (neighbor < model::min_period(protocol, params)) continue;
      EXPECT_LE(at_opt,
                model::waste(protocol, params, neighbor, sdc_only(spec)) +
                    1e-12)
          << model::protocol_name(protocol) << " factor " << factor;
    }
  }
}

TEST(SdcModelTest, VerificationShiftsOptimumAboveFailStop) {
  // Pure verification overhead (no strikes) amortizes over longer periods:
  // the optimum must not fall below the fail-stop one.
  const auto params = sdc_params();
  const SdcSpec spec{0.0, 30.0, 1};
  const auto base =
      model::optimal_period_closed_form(Protocol::DoubleNbl, params);
  const auto with_verify = model::optimal_period_numeric(
      Protocol::DoubleNbl, params, sdc_only(spec));
  ASSERT_TRUE(base.feasible && with_verify.feasible);
  EXPECT_GE(with_verify.period, base.period * 0.999);
}

}  // namespace
