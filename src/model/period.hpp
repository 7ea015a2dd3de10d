// Optimal checkpoint period selection (paper Sec. III-B / V-B).
//
// Closed forms (first-order optima of the product-form waste, derived with
// Maple in the paper; re-derived here, see waste.hpp for the objective):
//
//   P*_nbl = sqrt(2 (delta + phi) (M - R - D - theta))            (Eq.  9)
//   P*_bof = sqrt(2 (delta + phi) (M - 2R - D - theta + phi))     (Eq. 10)
//   P*_tri = 2 sqrt(phi (M - D - R - theta))                      (Eq. 15)
//
// The closed forms can fall below the structural minimum period
// (sigma >= 0) -- e.g. TRIPLE at phi -> 0, where checkpointing is free and
// the optimum is the shortest admissible period -- so both entry points
// clamp into [min_period, +inf) and report whether clamping occurred.
// `optimal_period_numeric` minimizes the exact waste with Brent's method and
// is used by tests and benches to certify the closed forms.
#pragma once

#include <functional>

#include "model/parameters.hpp"
#include "model/protocol.hpp"
#include "model/waste.hpp"

namespace dckpt::model {

struct OptimalPeriod {
  double period = 0.0;   ///< chosen period (after clamping)
  double raw = 0.0;      ///< pre-clamp value (closed form or optimizer output)
  double waste = 0.0;    ///< waste at `period`
  bool clamped = false;  ///< true when raw < min_period or not finite
  bool feasible = true;  ///< false when no period achieves waste < 1
};

/// Closed-form optimum (Eq. 9/10/15 and our extensions), clamped to the
/// admissible domain. DoubleBlocking uses the BOF formula at theta = phi = R;
/// TripleBof uses the TRIPLE formula (its F differs from TRIPLE's only in
/// P-independent terms plus an O(1/P) term that first-order optimization
/// discards).
OptimalPeriod optimal_period_closed_form(Protocol protocol,
                                         const Parameters& params);

/// Numeric optimum: Brent minimization of the exact waste under `ext`
/// over [min_period, P_hi] where P_hi scales with the closed-form estimate
/// and M. No extension has a closed form, so their optima are certified
/// numerically. Defined in waste.cpp, which resolves `ext` once per call.
OptimalPeriod optimal_period_numeric(Protocol protocol,
                                     const Parameters& params,
                                     const Extensions& ext = {});

/// Same scan + Brent machinery over an arbitrary waste-shaped objective
/// (period -> value in [0, 1], saturating at 1 on infeasible plateaus like
/// waste() does); `optimal_period_numeric` is its waste instantiation.
OptimalPeriod optimal_period_numeric_objective(
    Protocol protocol, const Parameters& params,
    const std::function<double(double)>& objective);

/// Waste evaluated at the (closed-form) optimal period -- the quantity
/// plotted in the paper's Figures 4, 5, 7 and 8.
double waste_at_optimal_period(Protocol protocol, const Parameters& params);

/// Joint optimization over the overhead phi AND the period: the paper
/// treats phi as an input (the runtime chooses how hard to pace
/// transfers), but a deployment is free to pick it. Scans phi on a fine
/// grid (the waste-vs-phi curve is piecewise smooth but not unimodal in
/// general near clamping boundaries), with the closed-form period at each
/// point. For alpha = 0 the only physical point is phi = R.
struct JointOptimum {
  double overhead = 0.0;  ///< best phi
  OptimalPeriod optimum;  ///< period/waste at that phi
};
JointOptimum optimal_overhead_and_period(Protocol protocol,
                                         const Parameters& params,
                                         int grid_points = 64);

}  // namespace dckpt::model
