// Clustered-failure (Weibull-aware) axis of the waste model.
//
// The paper's waste model (waste.hpp) assumes exponential inter-failure
// times: failures form a Poisson stream of rate 1/M, so (a) the expected
// number of failures over a mission of length T is exactly T/M, and (b) a
// failure strikes uniformly inside the period, losing P/2 of it on average.
// Real platforms cluster failures -- a Weibull hazard with shape k < 1 has
// infinite density at age zero (infant mortality), and the simulator starts
// every node with a fresh clock, so both assumptions break:
//
// (a) Failure count. Each node is an *ordinary* renewal process (all clocks
//     start at age zero; a replacement restarts its clock at rebirth). Its
//     expected failure count over [0, T] is the ordinary renewal function
//     m0(T), not T/mu (mu = n*M is the per-node mean). Smith's theorem gives
//     m0(t) = t/mu + (c^2 - 1)/2 + o(1), where c^2 is the squared
//     coefficient of variation -- an O(1) startup excess (deficit for
//     k > 1) that does not vanish with T. We capture it as the rate factor
//
//         gamma(k, T) = mu * m0(T) / T,
//
//     with m0 solved numerically from the renewal equation (no closed form
//     for Weibull). The corrected failure-induced waste is then
//     WASTE_fail = gamma * F_k(P) / M.
//
// (b) Mid-period loss. The excess failures are not uniform inside the
//     period: they come from young nodes, whose small-t CDF is
//     F(t) ~ (t/lambda)^k. Conditioning such a strike on landing inside a
//     window of length P gives a position with CDF (t/P)^k on [0, P], hence
//     an expected strike position (= lost work) of P * k/(k+1) -- less than
//     P/2 for k < 1, more for k > 1.
//     Splitting failures into a stationary fraction 1/gamma (loss P/2, the
//     paper's term) and an excess fraction (gamma-1)/gamma (loss
//     P*k/(k+1)) yields the blended loss coefficient
//
//         eta = (1/gamma) * 1/2 + ((gamma-1)/gamma) * k/(k+1),
//
//     and the corrected per-failure cost F_k(P) = F(P) - P/2 + eta * P,
//     which is protocol-uniform: every F in waste.cpp carries the same
//     additive P/2 mid-period term (Eq. 7/8/14), so the correction applies
//     to DOUBLENBL, DOUBLEBOF (and its blocking point) and TRIPLE alike.
//
// At k = 1 (exponential): c^2 = 1, m0(t) = t/mu exactly, gamma = 1,
// eta = 1/2, so F_k = F and the model reduces *exactly* -- the k == 1 paths
// below delegate to the waste.hpp/period.hpp entry points and are
// bit-identical to them (asserted by tests/test_nonexponential.cpp).
//
// First-order accuracy: validated against the Monte-Carlo engine at the
// paper's base scenario -- shape 0.7 and 0.5 land within ~2-4% relative of
// the simulated waste (vs. +10% / +26% deviation of the exponential model),
// see SimVsModelTest.WeibullShapeBelowOneMatchesClusteredModel. The model
// is a transient correction, not an exact non-stationary solution; accuracy
// degrades for extreme shapes (k < ~0.3) where higher-order renewal terms
// matter.
#pragma once

#include <cstddef>
#include <limits>

#include "model/parameters.hpp"

namespace dckpt::model {

/// Squared coefficient of variation of a Weibull(shape) law:
/// c^2 = Gamma(1 + 2/k) / Gamma(1 + 1/k)^2 - 1. Exactly 1 at k = 1,
/// exactly 5 at k = 1/2; grows without bound as k -> 0.
double weibull_cv2(double shape);

/// Ordinary renewal function m0(t): expected number of renewals in [0, t]
/// for i.i.d. Weibull(shape) inter-arrival times with the given mean and
/// the clock starting at age zero. Solved from the renewal equation
/// m(t) = F(t) + integral_0^t m(t - u) dF(u) with an implicit trapezoid
/// discretization on `grid` bins; beyond ~50 means the excess m(t) - t/mu
/// has converged (Smith), so the solution is extended linearly at the
/// stationary rate. Exactly t/mean at shape = 1.
double weibull_renewal_function(double shape, double mean, double time,
                                std::size_t grid = 2048);

/// Description of the platform failure stream for the clustered model.
struct WeibullFailures {
  double shape = 1.0;  ///< Weibull shape k; 1 = exponential (paper model)

  /// Mission wall-clock horizon over which failures accrue. The startup
  /// excess is O(1) per node, so its *rate* contribution depends on how
  /// long the mission runs; use the expected makespan when comparing
  /// against a simulation. +inf selects the stationary limit, where the
  /// correction vanishes (gamma -> 1) and the model coincides with the
  /// paper's first-order formulas at any shape.
  double horizon = std::numeric_limits<double>::infinity();

  bool enabled() const noexcept { return shape != 1.0; }

  /// Throws std::invalid_argument unless shape is finite and > 0 and
  /// horizon > 0 (+inf allowed).
  void validate() const;
};

/// First-order correction factors induced by the Weibull failure stream.
/// The defaults are the identity correction (exponential model).
struct ClusterCorrection {
  /// gamma = mu * m0(horizon) / horizon: expected failures over the
  /// horizon relative to a Poisson stream of the same mean. > 1 for k < 1
  /// (startup burst), < 1 for k > 1 (fresh nodes rarely fail early).
  double rate_factor = 1.0;
  /// (gamma - 1) / gamma: fraction of failures attributable to the
  /// transient excess. Negative for k > 1 (a deficit).
  double excess_fraction = 0.0;
  /// eta: expected lost fraction of the period per failure (the paper's
  /// 1/2, blended with k/(k+1) on the excess fraction).
  double loss_coefficient = 0.5;
};

/// Correction for `failures` on the platform described by `params`.
/// Identity at shape = 1 or horizon = +inf. The renewal solve costs
/// O(grid^2), so optimal_period_numeric solves it once per call, not once
/// per period it evaluates.
ClusterCorrection cluster_correction(const Parameters& params,
                                     const WeibullFailures& failures);

}  // namespace dckpt::model
