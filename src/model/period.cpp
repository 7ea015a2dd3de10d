#include "model/period.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "model/waste.hpp"
#include "util/math.hpp"

namespace dckpt::model {

namespace {

/// Raw (unclamped) closed-form optimum; NaN when the argument of the square
/// root is negative (platform MTBF too small for the formula's domain).
double closed_form_raw(Protocol protocol, const Parameters& params) {
  const auto transfer = effective_transfer(protocol, params);
  const double d = params.downtime;
  const double r = params.recovery();
  const double theta = transfer.theta;
  const double phi = transfer.phi;
  const double delta = params.local_ckpt;
  const double m = params.mtbf;
  switch (protocol) {
    case Protocol::DoubleNbl:
      return std::sqrt(2.0 * (delta + phi) * (m - r - d - theta));
    case Protocol::DoubleBof:
    case Protocol::DoubleBlocking:
      return std::sqrt(2.0 * (delta + phi) * (m - 2.0 * r - d - theta + phi));
    case Protocol::Triple:
    case Protocol::TripleBof:
      return 2.0 * std::sqrt(phi * (m - d - r - theta));
  }
  return std::nan("");
}

OptimalPeriod finalize_objective(Protocol protocol, const Parameters& params,
                                 double raw,
                                 const std::function<double(double)>& f) {
  OptimalPeriod result;
  result.raw = raw;
  const double lo = min_period(protocol, params);
  if (!std::isfinite(raw) || raw < lo) {
    result.period = lo;
    result.clamped = true;
  } else {
    result.period = raw;
  }
  result.waste = f(result.period);
  result.feasible = result.waste < 1.0;
  return result;
}

OptimalPeriod finalize(Protocol protocol, const Parameters& params,
                       double raw) {
  return finalize_objective(protocol, params, raw, [&](double period) {
    return waste(protocol, params, period);
  });
}

}  // namespace

OptimalPeriod optimal_period_closed_form(Protocol protocol,
                                         const Parameters& params) {
  params.validate();
  return finalize(protocol, params, closed_form_raw(protocol, params));
}

OptimalPeriod optimal_period_numeric_objective(
    Protocol protocol, const Parameters& params,
    const std::function<double(double)>& objective) {
  params.validate();
  const double lo = min_period(protocol, params);
  // Upper bracket: generously beyond both the closed-form estimate and the
  // MTBF (waste grows once F(P) ~ M, so the optimum cannot sit far above M).
  const double guess = closed_form_raw(protocol, params);
  double hi = 4.0 * params.mtbf + 10.0 * lo;
  if (std::isfinite(guess)) hi = std::max(hi, 4.0 * guess);
  // waste() saturates at 1.0, so the objective has flat plateaus wherever the
  // platform is infeasible -- near lo (period barely above the checkpoint
  // cost) and for large P (failures dominate). Brent's golden-section steps
  // can stall on those plateaus and report a boundary, so first locate the
  // basin with a coarse log-spaced scan and hand Brent the bracketing
  // sub-interval around the best sample.
  constexpr int kScanPoints = 64;
  const double ratio = hi / lo;
  double best_x = lo;
  double best_f = objective(lo);
  double xs[kScanPoints + 1];
  for (int i = 0; i <= kScanPoints; ++i) {
    xs[i] = lo * std::pow(ratio, static_cast<double>(i) / kScanPoints);
    const double f = objective(xs[i]);
    if (f < best_f) {
      best_f = f;
      best_x = xs[i];
    }
  }
  double bracket_lo = lo;
  double bracket_hi = hi;
  for (int i = 0; i <= kScanPoints; ++i) {
    if (xs[i] == best_x) {
      bracket_lo = i > 0 ? xs[i - 1] : lo;
      bracket_hi = i < kScanPoints ? xs[i + 1] : hi;
      break;
    }
  }
  const auto brent =
      util::minimize_brent(objective, bracket_lo, bracket_hi, 1e-10, 300);
  OptimalPeriod result =
      finalize_objective(protocol, params,
                         objective(brent.x) <= best_f ? brent.x : best_x,
                         objective);
  // finalize() clamps; the optimizer result is already in-domain, but the
  // boundary optimum (P = lo) is common for TRIPLE at phi ~ 0.
  if (objective(lo) <= result.waste) {
    result.period = lo;
    result.raw = brent.x;
    result.clamped = true;
    result.waste = objective(lo);
    result.feasible = result.waste < 1.0;
  }
  return result;
}

double waste_at_optimal_period(Protocol protocol, const Parameters& params) {
  return optimal_period_closed_form(protocol, params).waste;
}

JointOptimum optimal_overhead_and_period(Protocol protocol,
                                         const Parameters& params,
                                         int grid_points) {
  params.validate();
  if (grid_points < 2) {
    throw std::invalid_argument("optimal_overhead_and_period: grid too small");
  }
  JointOptimum best;
  best.optimum.waste = 2.0;  // worse than any real waste
  const int first = params.alpha == 0.0 ? grid_points : 0;
  for (int i = first; i <= grid_points; ++i) {
    const double phi = params.remote_blocking * static_cast<double>(i) /
                       static_cast<double>(grid_points);
    const auto opt =
        optimal_period_closed_form(protocol, params.with_overhead(phi));
    if (opt.waste < best.optimum.waste) {
      best.overhead = phi;
      best.optimum = opt;
    }
  }
  return best;
}

}  // namespace dckpt::model
