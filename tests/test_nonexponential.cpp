// Unit and property tests for the clustered-failure (Weibull-aware) waste
// model in model/nonexponential.hpp: the renewal-function solver, the
// correction factors, the exact k = 1 reduction to the exponential closed
// forms, and monotone convergence toward the exponential model as k -> 1.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "model/model_api.hpp"
#include "proptest.hpp"

namespace {

using namespace dckpt::model;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The probe configuration used throughout: the base scenario at phi = 1,
/// M = 2000 s, 12 nodes (per-node mean 24000 s), at the closed-form optimal
/// period. Matches the SimVsModelTest Weibull scenarios.
struct Probe {
  Parameters params;
  double period = 0.0;
  double horizon = 0.0;  // expected makespan under the exponential model
};

/// Weibull clustering alone: `shape` over `horizon`.
Extensions clustered(double shape, double horizon) {
  Extensions ext;
  ext.weibull = {shape, horizon};
  return ext;
}

Probe probe_for(Protocol protocol) {
  Probe probe;
  probe.params = base_scenario().params.with_overhead(1.0).with_mtbf(2000.0);
  probe.params.nodes = 12;
  probe.period = optimal_period_closed_form(protocol, probe.params).period;
  probe.horizon =
      expected_makespan(protocol, probe.params, probe.period, 50000.0);
  return probe;
}

TEST(WeibullCv2Test, KnownValues) {
  // c^2(k) = Gamma(1 + 2/k) / Gamma(1 + 1/k)^2 - 1.
  // k = 0.5: Gamma(5)/Gamma(3)^2 - 1 = 24/4 - 1 = 5 exactly.
  EXPECT_NEAR(weibull_cv2(0.5), 5.0, 1e-12);
  // k = 1 is the exponential: unit coefficient of variation.
  EXPECT_DOUBLE_EQ(weibull_cv2(1.0), 1.0);
  // k = 2 (Rayleigh): 4/pi - 1.
  EXPECT_NEAR(weibull_cv2(2.0), 4.0 / M_PI - 1.0, 1e-12);
  // Monotone decreasing in k: more shape, less burstiness.
  EXPECT_GT(weibull_cv2(0.7), weibull_cv2(1.0));
  EXPECT_LT(weibull_cv2(1.5), weibull_cv2(1.0));
}

TEST(WeibullCv2Test, RejectsBadShape) {
  EXPECT_THROW(weibull_cv2(0.0), std::invalid_argument);
  EXPECT_THROW(weibull_cv2(-1.0), std::invalid_argument);
  EXPECT_THROW(weibull_cv2(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(RenewalFunctionTest, ExponentialIsExactlyLinear) {
  // Poisson arrivals: m(t) = t / mean, no transient at all.
  EXPECT_DOUBLE_EQ(weibull_renewal_function(1.0, 100.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(weibull_renewal_function(1.0, 100.0, 250.0), 2.5);
  EXPECT_DOUBLE_EQ(weibull_renewal_function(1.0, 100.0, 1e6), 1e4);
}

TEST(RenewalFunctionTest, MonotoneInTime) {
  double prev = -1.0;
  for (double t : {0.0, 10.0, 50.0, 100.0, 400.0, 2000.0, 10000.0}) {
    const double m = weibull_renewal_function(0.7, 100.0, t);
    EXPECT_GE(m, prev) << "t=" << t;
    prev = m;
  }
}

TEST(RenewalFunctionTest, SmithAsymptote) {
  // Smith's key renewal theorem: m(t) -> t/mu + (c^2 - 1)/2 as t -> inf.
  // The solver integrates the transient on [0, 50 mu] and extends linearly,
  // so by t = 100 mu the excess must match (c^2 - 1)/2. Tolerances reflect
  // the trapezoid grid bias measured at each shape (largest at k = 0.5,
  // where the density has an integrable singularity at 0).
  struct Case {
    double shape;
    double tol;
  };
  for (const auto& c : {Case{0.5, 0.08}, Case{0.7, 0.02}, Case{2.0, 0.01}}) {
    const double mean = 100.0;
    const double t = 100.0 * mean;
    const double excess = weibull_renewal_function(c.shape, mean, t) - t / mean;
    EXPECT_NEAR(excess, (weibull_cv2(c.shape) - 1.0) / 2.0, c.tol)
        << "shape=" << c.shape;
  }
}

TEST(RenewalFunctionTest, StartupExcessSign) {
  // Decreasing hazard (k < 1) front-loads failures: more renewals than the
  // stationary rate early on. Increasing hazard (k > 1) delays the first
  // failure: fewer renewals early on.
  const double mean = 100.0;
  for (double t : {50.0, 100.0, 300.0}) {
    EXPECT_GT(weibull_renewal_function(0.7, mean, t), t / mean) << t;
    EXPECT_LT(weibull_renewal_function(1.5, mean, t), t / mean) << t;
  }
}

TEST(RenewalFunctionTest, RejectsBadInputs) {
  EXPECT_THROW(weibull_renewal_function(0.0, 100.0, 10.0),
               std::invalid_argument);
  EXPECT_THROW(weibull_renewal_function(1.0, 0.0, 10.0),
               std::invalid_argument);
  EXPECT_THROW(weibull_renewal_function(1.0, 100.0, -1.0),
               std::invalid_argument);
  EXPECT_THROW(weibull_renewal_function(1.0, 100.0, kInf),
               std::invalid_argument);
  EXPECT_THROW(weibull_renewal_function(1.0, 100.0, 10.0, /*grid=*/4),
               std::invalid_argument);
}

TEST(WeibullFailuresTest, ValidateRejectsBadFields) {
  EXPECT_THROW((WeibullFailures{0.0, 100.0}.validate()),
               std::invalid_argument);
  EXPECT_THROW((WeibullFailures{-0.5, 100.0}.validate()),
               std::invalid_argument);
  EXPECT_THROW((WeibullFailures{1.0, 0.0}.validate()), std::invalid_argument);
  EXPECT_THROW((WeibullFailures{1.0, -5.0}.validate()),
               std::invalid_argument);
  EXPECT_THROW(
      (WeibullFailures{1.0, std::numeric_limits<double>::quiet_NaN()}
           .validate()),
      std::invalid_argument);
  EXPECT_NO_THROW((WeibullFailures{0.7, 1e5}.validate()));
  EXPECT_NO_THROW((WeibullFailures{1.0, kInf}.validate()));
}

TEST(ClusterCorrectionTest, IdentityAtShapeOneAndInfiniteHorizon) {
  const auto probe = probe_for(Protocol::DoubleNbl);
  for (const auto& failures :
       {WeibullFailures{1.0, probe.horizon}, WeibullFailures{0.7, kInf},
        WeibullFailures{1.6, kInf}}) {
    const auto corr = cluster_correction(probe.params, failures);
    EXPECT_DOUBLE_EQ(corr.rate_factor, 1.0);
    EXPECT_DOUBLE_EQ(corr.excess_fraction, 0.0);
    EXPECT_DOUBLE_EQ(corr.loss_coefficient, 0.5);
  }
}

TEST(ClusterCorrectionTest, DirectionBelowAndAboveOne) {
  const auto probe = probe_for(Protocol::DoubleNbl);
  // k < 1: startup burst -> more failures than exponential over the mission,
  // and each strike lands earlier in the period (loss coefficient < 1/2).
  const auto below =
      cluster_correction(probe.params, WeibullFailures{0.7, probe.horizon});
  EXPECT_GT(below.rate_factor, 1.0);
  EXPECT_GT(below.excess_fraction, 0.0);
  EXPECT_LT(below.loss_coefficient, 0.5);
  // Measured window for this configuration (mu = 24000 s, horizon ~ 2.2 mu):
  // gamma ~ 1.22. Guard against solver regressions.
  EXPECT_NEAR(below.rate_factor, 1.22, 0.07);
  // k > 1: delayed first failures -> fewer failures. The excess fraction
  // goes negative while the conditional strike position k/(k+1) sits above
  // 1/2, so the blended loss coefficient again lands below 1/2: the failure
  // deficit is taken out of late-period strikes.
  const auto above =
      cluster_correction(probe.params, WeibullFailures{1.5, probe.horizon});
  EXPECT_LT(above.rate_factor, 1.0);
  EXPECT_LT(above.excess_fraction, 0.0);
  EXPECT_LT(above.loss_coefficient, 0.5);
}

TEST(NonexponentialWasteTest, ShapeOneIsBitIdenticalToExponential) {
  // The k = 1 fast path and the identity correction (any shape over the
  // stationary, infinite horizon) must reproduce the exponential closed
  // forms exactly (==, not NEAR), for every protocol and across the period
  // range.
  const auto identity = clustered(0.7, kInf);
  for (auto protocol : kAllProtocols) {
    const auto probe = probe_for(protocol);
    const auto at_horizon = clustered(1.0, probe.horizon);
    const double lo = min_period(protocol, probe.params);
    for (double factor : {1.0, 1.5, 3.0, 10.0, 50.0}) {
      const double period = lo * factor;
      const double expected = waste(protocol, probe.params, period);
      EXPECT_EQ(waste(protocol, probe.params, period, at_horizon), expected)
          << protocol_name(protocol) << " factor=" << factor;
      EXPECT_EQ(waste(protocol, probe.params, period, identity), expected)
          << protocol_name(protocol) << " factor=" << factor;
      EXPECT_EQ(expected_failure_cost(protocol, probe.params, period,
                                      at_horizon) /
                    probe.params.mtbf,
                waste_failure(protocol, probe.params, period))
          << protocol_name(protocol) << " factor=" << factor;
      EXPECT_EQ(expected_failure_cost(protocol, probe.params, period,
                                      identity),
                expected_failure_cost(protocol, probe.params, period))
          << protocol_name(protocol) << " factor=" << factor;
    }
  }
}

TEST(NonexponentialWasteTest, CorrectionShiftsLossTermExactly) {
  // With the solved correction, the corrected failure cost must be the
  // exponential cost plus (eta - 1/2) * P, and the failure term gamma times
  // that over M -- the documented first-order decomposition.
  const auto probe = probe_for(Protocol::DoubleNbl);
  const WeibullFailures failures{0.7, probe.horizon};
  Extensions ext;
  ext.weibull = failures;
  const auto corr = cluster_correction(probe.params, failures);
  const double eta = corr.loss_coefficient;
  const double base =
      expected_failure_cost(Protocol::DoubleNbl, probe.params, probe.period);
  EXPECT_DOUBLE_EQ(expected_failure_cost(Protocol::DoubleNbl, probe.params,
                                         probe.period, ext),
                   base + (eta - 0.5) * probe.period);
  const double fail = corr.rate_factor *
                      (base + (eta - 0.5) * probe.period) / probe.params.mtbf;
  const double ff =
      waste_fault_free(Protocol::DoubleNbl, probe.params, probe.period);
  EXPECT_DOUBLE_EQ(waste(Protocol::DoubleNbl, probe.params, probe.period, ext),
                   1.0 - (1.0 - fail) * (1.0 - ff));
}

TEST(NonexponentialWasteTest, WasteFailureNeverNegative) {
  // An extreme k > 1 correction -- shape 2 over a horizon of 6% of the
  // node MTBF, where almost no node fails yet (gamma ~ 0.05) -- pushes the
  // corrected cost negative at tiny periods; the failure term must clamp
  // at zero, leaving exactly the fault-free waste.
  const auto probe = probe_for(Protocol::DoubleNbl);
  const WeibullFailures failures{2.0, 0.06 * probe.params.node_mtbf()};
  ASSERT_LT(cluster_correction(probe.params, failures).rate_factor, 0.1);
  Extensions ext;
  ext.weibull = failures;
  const double lo = min_period(Protocol::DoubleNbl, probe.params);
  EXPECT_LT(expected_failure_cost(Protocol::DoubleNbl, probe.params, lo, ext),
            0.0);
  const double ff = waste_fault_free(Protocol::DoubleNbl, probe.params, lo);
  const double w = waste(Protocol::DoubleNbl, probe.params, lo, ext);
  EXPECT_GE(w, 0.0);
  EXPECT_EQ(w, 1.0 - (1.0 - 0.0) * (1.0 - ff));
}

TEST(NonexponentialWasteTest, DirectionMatchesClustering) {
  // Sub-exponential shapes cluster failures and must raise the predicted
  // waste; super-exponential shapes regularize arrivals and must lower it.
  for (auto protocol : {Protocol::DoubleNbl, Protocol::Triple}) {
    const auto probe = probe_for(protocol);
    const double exp_waste = waste(protocol, probe.params, probe.period);
    EXPECT_GT(waste(protocol, probe.params, probe.period,
                    clustered(0.7, probe.horizon)),
              exp_waste)
        << protocol_name(protocol);
    EXPECT_LT(waste(protocol, probe.params, probe.period,
                    clustered(1.5, probe.horizon)),
              exp_waste)
        << protocol_name(protocol);
  }
}

TEST(NonexponentialWasteTest, MonotoneConvergenceToExponentialModel) {
  // As k -> 1 from either side, the clustered model must converge to the
  // exponential closed form, and the deviation must shrink monotonically
  // along a ladder of shapes approaching 1. This pins down both the limit
  // and the absence of solver noise near the exponential point.
  for (auto protocol : {Protocol::DoubleNbl, Protocol::Triple}) {
    const auto probe = probe_for(protocol);
    const double exp_waste = waste(protocol, probe.params, probe.period);
    const auto deviation = [&](double shape) {
      return std::fabs(waste(protocol, probe.params, probe.period,
                             clustered(shape, probe.horizon)) -
                       exp_waste);
    };
    const double below[] = {0.5, 0.65, 0.8, 0.95, 0.99};
    for (std::size_t i = 1; i < std::size(below); ++i) {
      EXPECT_LT(deviation(below[i]), deviation(below[i - 1]))
          << protocol_name(protocol) << " k=" << below[i];
    }
    const double above[] = {2.0, 1.7, 1.4, 1.15, 1.01};
    for (std::size_t i = 1; i < std::size(above); ++i) {
      EXPECT_LT(deviation(above[i]), deviation(above[i - 1]))
          << protocol_name(protocol) << " k=" << above[i];
    }
    // The ladder terminates in the exact limit.
    EXPECT_LT(deviation(0.99), 1e-3 * (1.0 + exp_waste));
    EXPECT_LT(deviation(1.01), 1e-3 * (1.0 + exp_waste));
    EXPECT_DOUBLE_EQ(deviation(1.0), 0.0);
  }
}

TEST(NonexponentialWasteTest, PropertyWasteMonotoneInShape) {
  // Randomized extension of the direction tests: at the closed-form optimal
  // period and the mission's expected horizon, the corrected waste is
  // nonincreasing in the shape parameter (more burstiness never helps).
  proptest::ForallConfig config;
  config.seed = 0x4e07;
  config.iterations = 48;
  struct Draw {
    Protocol protocol;
    double mtbf;
    double k_lo;
    double k_hi;
  };
  EXPECT_TRUE(proptest::forall<Draw>(
      config,
      [](proptest::Gen& gen) {
        Draw draw;
        draw.protocol = kAllProtocols[static_cast<std::size_t>(
            gen.integer(0, kAllProtocols.size() - 1))];
        draw.mtbf = gen.log_uniform(900.0, 14400.0);
        draw.k_lo = gen.uniform(0.45, 2.5);
        draw.k_hi = gen.uniform(0.45, 2.5);
        if (draw.k_lo > draw.k_hi) std::swap(draw.k_lo, draw.k_hi);
        return draw;
      },
      [](const Draw& draw) -> std::optional<std::string> {
        auto params =
            base_scenario().params.with_overhead(1.0).with_mtbf(draw.mtbf);
        params.nodes = 12;
        const auto opt = optimal_period_closed_form(draw.protocol, params);
        if (!opt.feasible) return std::nullopt;  // vacuously holds
        const double horizon = expected_makespan(draw.protocol, params,
                                                 opt.period, 25.0 * draw.mtbf);
        if (!std::isfinite(horizon)) return std::nullopt;
        const double w_lo = waste(draw.protocol, params, opt.period,
                                  clustered(draw.k_lo, horizon));
        const double w_hi = waste(draw.protocol, params, opt.period,
                                  clustered(draw.k_hi, horizon));
        if (w_lo + 1e-12 < w_hi) {
          return "waste increased with shape: w(" + std::to_string(draw.k_lo) +
                 ")=" + std::to_string(w_lo) + " < w(" +
                 std::to_string(draw.k_hi) + ")=" + std::to_string(w_hi);
        }
        return std::nullopt;
      },
      /*shrink=*/nullptr,
      /*show=*/[](const Draw& draw) {
        return std::string(protocol_name(draw.protocol)) +
               " mtbf=" + std::to_string(draw.mtbf) +
               " k_lo=" + std::to_string(draw.k_lo) +
               " k_hi=" + std::to_string(draw.k_hi);
      }));
}

TEST(NonexponentialOptimumTest, ShapeOneMatchesExponentialNumeric) {
  for (auto protocol : {Protocol::DoubleNbl, Protocol::TripleBof}) {
    const auto probe = probe_for(protocol);
    const auto exp_opt = optimal_period_numeric(protocol, probe.params);
    const auto weib_opt = optimal_period_numeric(protocol, probe.params,
                                                 clustered(1.0, probe.horizon));
    ASSERT_TRUE(weib_opt.feasible) << protocol_name(protocol);
    EXPECT_EQ(weib_opt.period, exp_opt.period) << protocol_name(protocol);
    EXPECT_EQ(weib_opt.waste, exp_opt.waste) << protocol_name(protocol);
  }
}

TEST(NonexponentialOptimumTest, ClusteredOptimumBeatsExponentialPeriod) {
  // The corrected objective must find a period at least as good (under the
  // corrected model) as re-using the exponential optimum, and for k < 1 the
  // optimum shifts to shorter periods: clustered failures reward more
  // frequent checkpoints.
  const auto probe = probe_for(Protocol::DoubleNbl);
  const auto failures = clustered(0.7, probe.horizon);
  const auto opt =
      optimal_period_numeric(Protocol::DoubleNbl, probe.params, failures);
  ASSERT_TRUE(opt.feasible);
  EXPECT_GE(opt.period,
            min_period(Protocol::DoubleNbl, probe.params) - 1e-9);
  const double at_exp_period =
      waste(Protocol::DoubleNbl, probe.params, probe.period, failures);
  EXPECT_LE(opt.waste, at_exp_period + 1e-9);
  EXPECT_LT(opt.period, probe.period);
}

}  // namespace
