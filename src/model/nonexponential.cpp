#include "model/nonexponential.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>


namespace dckpt::model {

namespace {

// Beyond this many means the excess m0(t) - t/mu has converged to Smith's
// constant (c^2 - 1)/2 for every shape we care about, so the renewal
// equation is only solved on [0, kAsymptoteMeans * mean] and extended
// linearly at the stationary rate 1/mu. Keeping the solve window bounded
// also keeps the grid resolution at ~mean/40 regardless of the horizon.
constexpr double kAsymptoteMeans = 50.0;

void check_shape(double shape, const char* who) {
  if (!std::isfinite(shape) || !(shape > 0.0)) {
    throw std::invalid_argument(std::string(who) +
                                ": shape must be finite and > 0");
  }
}

}  // namespace

double weibull_cv2(double shape) {
  check_shape(shape, "weibull_cv2");
  const double g1 = std::tgamma(1.0 + 1.0 / shape);
  const double g2 = std::tgamma(1.0 + 2.0 / shape);
  return g2 / (g1 * g1) - 1.0;
}

double weibull_renewal_function(double shape, double mean, double time,
                                std::size_t grid) {
  check_shape(shape, "weibull_renewal_function");
  if (!std::isfinite(mean) || !(mean > 0.0)) {
    throw std::invalid_argument(
        "weibull_renewal_function: mean must be finite and > 0");
  }
  if (!std::isfinite(time) || time < 0.0) {
    throw std::invalid_argument(
        "weibull_renewal_function: time must be finite and >= 0");
  }
  if (grid < 8) {
    throw std::invalid_argument("weibull_renewal_function: grid too coarse");
  }
  if (time == 0.0) return 0.0;
  // Memoryless case: the renewal process is Poisson, m0(t) = t/mu exactly.
  if (shape == 1.0) return time / mean;

  const double scale = mean / std::tgamma(1.0 + 1.0 / shape);
  const auto cdf = [&](double t) {
    return -std::expm1(-std::pow(t / scale, shape));
  };

  const double t_solve = std::min(time, kAsymptoteMeans * mean);
  const std::size_t n = grid;
  const double h = t_solve / static_cast<double>(n);

  // Interarrival mass per bin: q[j] = F(jh) - F((j-1)h).
  std::vector<double> q(n + 1, 0.0);
  double prev = 0.0;
  for (std::size_t j = 1; j <= n; ++j) {
    const double c = cdf(h * static_cast<double>(j));
    q[j] = c - prev;
    prev = c;
  }

  // Implicit trapezoid discretization of the renewal equation
  //   m(t_i) = F(t_i) + integral_0^{t_i} m(t_i - u) dF(u):
  // the mass q[j] in bin j multiplies the average of m at the bin edges;
  // the j = 1 term involves the unknown m[i], hence the (1 - q[1]/2)
  // divisor. O(n^2) overall -- n is ~2k and this runs once per correction.
  std::vector<double> m(n + 1, 0.0);
  for (std::size_t i = 1; i <= n; ++i) {
    double acc = cdf(h * static_cast<double>(i)) + 0.5 * q[1] * m[i - 1];
    for (std::size_t j = 2; j <= i; ++j) {
      acc += 0.5 * q[j] * (m[i - j] + m[i - j + 1]);
    }
    m[i] = acc / (1.0 - 0.5 * q[1]);
  }

  if (time >= t_solve) {
    return m[n] + (time - t_solve) / mean;
  }
  const double x = time / h;
  const std::size_t i =
      std::min(n - 1, static_cast<std::size_t>(std::floor(x)));
  const double frac = x - static_cast<double>(i);
  return m[i] + frac * (m[i + 1] - m[i]);
}

void WeibullFailures::validate() const {
  check_shape(shape, "WeibullFailures");
  if (std::isnan(horizon) || !(horizon > 0.0)) {
    throw std::invalid_argument(
        "WeibullFailures: horizon must be > 0 (+inf for stationary)");
  }
}

ClusterCorrection cluster_correction(const Parameters& params,
                                     const WeibullFailures& failures) {
  params.validate();
  failures.validate();
  ClusterCorrection corr;
  // Stationary limit (or exponential): the excess is O(1) per node, so its
  // rate contribution vanishes and the paper's model is already first-order
  // correct.
  if (failures.shape == 1.0 || std::isinf(failures.horizon)) return corr;

  const double mu = params.node_mtbf();
  const double m0 =
      weibull_renewal_function(failures.shape, mu, failures.horizon);
  corr.rate_factor = mu * m0 / failures.horizon;
  corr.excess_fraction = (corr.rate_factor - 1.0) / corr.rate_factor;
  const double beta = failures.shape / (failures.shape + 1.0);
  corr.loss_coefficient = (1.0 - corr.excess_fraction) * 0.5 +
                          corr.excess_fraction * beta;
  return corr;
}

}  // namespace dckpt::model
