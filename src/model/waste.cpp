#include "model/waste.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "model/period.hpp"

namespace dckpt::model {

namespace {

void check_period(Protocol protocol, const Parameters& params, double period) {
  if (!std::isfinite(period)) {
    throw std::invalid_argument("waste: period must be finite");
  }
  const double lo = min_period(protocol, params);
  // Tolerate tiny numerical undershoot from optimizers.
  if (period < lo * (1.0 - 1e-12)) {
    throw std::invalid_argument("waste: period below min_period");
  }
}

/// The period-independent factors an Extensions value resolves to (see
/// waste.hpp). The defaults are the paper's model: m, g and gamma exactly
/// 1 and eta exactly 1/2, so every term reduces to Eq. 7/8/14 bit for bit.
struct Factors {
  double m = 1.0;       ///< dcp: checkpoint volume multiplier
  double g = 1.0;       ///< dcp: recovery (chain replay) multiplier
  double eta = 0.5;     ///< Weibull: lost fraction of the period per failure
  double gamma = 1.0;   ///< Weibull: failure-count rate factor
  double mtbf = 0.0;    ///< M, or the predictor's effective M / (1 - r_t)
  double recall = 0.0;  ///< predictor: handled recall r_t
};

Factors resolve(const Parameters& params, const Extensions& ext) {
  Factors f;
  if (ext.dcp.enabled()) {
    f.m = checkpoint_volume_multiplier(ext.dcp);
    f.g = recovery_multiplier(ext.dcp);
  }
  if (ext.weibull.enabled()) {
    const auto corr = cluster_correction(params, ext.weibull);
    f.eta = corr.loss_coefficient;
    f.gamma = corr.rate_factor;
  }
  f.mtbf = params.mtbf;
  if (ext.predictor.enabled()) {
    // Handled failures stop paying rollbacks, so the rollback-bearing rate
    // shrinks to lambda (1 - r_t). A perfect predictor (r_t = 1) leaves a
    // vanishing unpredicted rate; cap the scaling rather than divide by 0.
    f.recall = effective_recall(ext.predictor);
    f.mtbf = params.mtbf / std::max(1.0 - f.recall, 1e-12);
  }
  return f;
}

/// The recovery transfers a rollback pays: n R, times the chain replay g.
double rollback_transfers(Protocol protocol, const Parameters& params,
                          const Factors& f) {
  return recovery_transfers(protocol) * f.g * params.recovery();
}

/// F(P): the one closed form per protocol, with m on the transfer terms, g
/// on the recovery transfers and the Weibull shift of the P/2 loss.
double failure_cost(Protocol protocol, const Parameters& params,
                    double period, const Factors& f) {
  const auto transfer = effective_transfer(protocol, params);
  const double d = params.downtime;
  const double r = rollback_transfers(protocol, params, f);
  const double theta = transfer.theta;
  const double phi = transfer.phi;
  const double m = f.m;
  double cost = std::numeric_limits<double>::quiet_NaN();
  switch (protocol) {
    case Protocol::DoubleNbl:  // Eq. (7)
    case Protocol::Triple:     // Eq. (14)
      cost = d + r + m * theta + period / 2.0;
      break;
    case Protocol::DoubleBof:  // Eq. (8)
    case Protocol::DoubleBlocking:
      cost = d + r + m * theta - m * phi + period / 2.0;
      break;
    case Protocol::TripleBof:
      // Derived like Eq. (8) but with two extra blocking transfers and the
      // 2*phi overlapped overhead removed from the lost-work integral.
      cost = d + r + m * theta + period / 2.0 - 2.0 * m * phi +
             m * phi * theta / period;
      break;
  }
  return cost + (f.eta - 0.5) * period;
}

/// WASTE_ff: the checkpoint parts' share of the period, with the dcp
/// volume multiplier m on them.
double fault_free_share(Protocol protocol, const Parameters& params,
                        double period, double m) {
  const auto transfer = effective_transfer(protocol, params);
  return (is_triple(protocol) ? 2.0 * transfer.phi
                              : params.local_ckpt + transfer.phi) *
         m / period;
}

/// One outer factor pair: 1 - (1 - w)(1 - a)(1 - b), saturating at 1.
double outer_factor(double w, double a, double b) {
  if (w >= 1.0 || a >= 1.0 || b >= 1.0) return 1.0;
  return std::clamp(1.0 - (1.0 - w) * (1.0 - a) * (1.0 - b), 0.0, 1.0);
}

/// The composition of waste.hpp at one period.
double composed_waste(Protocol protocol, const Parameters& params,
                      double period, const Extensions& ext,
                      const Factors& f) {
  check_period(protocol, params, period);
  const double ff = fault_free_share(protocol, params, period, f.m);
  // gamma can be tiny (essentially no failures expected over the horizon),
  // where the Weibull blend can undershoot: clamp the failure term at 0.
  const double fail = std::max(
      0.0, f.gamma * failure_cost(protocol, params, period, f) / f.mtbf);
  if (ff >= 1.0 || fail >= 1.0) return 1.0;
  double w = std::clamp(1.0 - (1.0 - fail) * (1.0 - ff), 0.0, 1.0);  // Eq. 5
  const double rollback = rollback_transfers(protocol, params, f);
  if (ext.sdc.enabled()) {
    const double k = static_cast<double>(ext.sdc.verify_every);
    w = outer_factor(w, ext.sdc.verify_cost / (k * period),
                     ext.sdc.rate * (rollback + (k + 1.0) * period / 2.0));
  }
  if (ext.predictor.enabled()) {
    const auto& pred = ext.predictor;
    const double lambda = 1.0 / params.mtbf;
    const double residual =
        pred.window > 0.0 ? (pred.window - pred.proactive_cost) / 2.0 : 0.0;
    const double handled_loss =
        params.downtime + rollback + std::max(residual, 0.0);
    w = outer_factor(
        w, lambda * (pred.recall / pred.precision) * pred.proactive_cost,
        lambda * f.recall * handled_loss);
  }
  return w;
}

}  // namespace

PeriodParts period_parts(Protocol protocol, const Parameters& params,
                         double period) {
  params.validate();
  check_period(protocol, params, period);
  const auto transfer = effective_transfer(protocol, params);
  PeriodParts parts;
  parts.part1 = is_triple(protocol) ? transfer.theta : params.local_ckpt;
  parts.part2 = transfer.theta;
  parts.part3 = std::max(0.0, period - parts.part1 - parts.part2);
  return parts;
}

double work_per_period(Protocol protocol, const Parameters& params,
                       double period) {
  const auto transfer = effective_transfer(protocol, params);
  if (is_triple(protocol)) return period - 2.0 * transfer.phi;
  return period - params.local_ckpt - transfer.phi;
}

ReExecution expected_reexecution(Protocol protocol, const Parameters& params,
                                 double period) {
  const auto parts = period_parts(protocol, params, period);
  const auto transfer = effective_transfer(protocol, params);
  const double theta = transfer.theta;
  const double phi = transfer.phi;
  const double delta = params.local_ckpt;
  const double sigma = parts.part3;
  ReExecution re;
  switch (protocol) {
    case Protocol::DoubleNbl:
      // Paper Sec. III-A: re-execution overlapped with re-receiving the
      // buddy's image (overhead phi spread over the first theta seconds).
      re.re1 = theta + sigma + delta / 2.0;
      re.re2 = theta + sigma + delta + theta / 2.0;
      re.re3 = theta + sigma / 2.0;
      break;
    case Protocol::DoubleBof:
    case Protocol::DoubleBlocking:
      // Both images already delivered (blocking): re-execution runs at full
      // speed -- each RE drops the phi overlap overhead.
      re.re1 = theta + sigma + delta / 2.0 - phi;
      re.re2 = theta + sigma + delta + theta / 2.0 - phi;
      re.re3 = theta + sigma / 2.0 - phi;
      break;
    case Protocol::Triple:
      // Paper Sec. V-A.
      re.re1 = 2.0 * theta + sigma + theta / 2.0;
      re.re2 = 3.0 * theta / 2.0;
      re.re3 = 2.0 * theta + sigma / 2.0;
      break;
    case Protocol::TripleBof:
      // Our extension: all three recovery transfers blocking, re-execution at
      // full speed, so RE_i is exactly the lost work W_lost_i.
      re.re1 = (period - 2.0 * phi) + theta / 2.0;
      re.re2 = (theta - phi) + theta / 2.0;
      re.re3 = 2.0 * (theta - phi) + sigma / 2.0;
      break;
  }
  return re;
}

void Extensions::validate() const {
  weibull.validate();
  sdc.validate();
  predictor.validate();
  dcp.validate();
}

double expected_failure_cost(Protocol protocol, const Parameters& params,
                             double period, const Extensions& ext) {
  ext.validate();
  params.validate();
  check_period(protocol, params, period);
  return failure_cost(protocol, params, period, resolve(params, ext));
}

double expected_failure_cost_from_parts(Protocol protocol,
                                        const Parameters& params,
                                        double period) {
  const auto parts = period_parts(protocol, params, period);
  const auto re = expected_reexecution(protocol, params, period);
  return params.downtime + recovery_transfers(protocol) * params.recovery() +
         (parts.part1 * re.re1 + parts.part2 * re.re2 + parts.part3 * re.re3) /
             period;
}

double waste_fault_free(Protocol protocol, const Parameters& params,
                        double period) {
  params.validate();
  check_period(protocol, params, period);
  return fault_free_share(protocol, params, period, 1.0);
}

double waste_failure(Protocol protocol, const Parameters& params,
                     double period) {
  return expected_failure_cost(protocol, params, period) / params.mtbf;
}

double waste(Protocol protocol, const Parameters& params, double period,
             const Extensions& ext) {
  ext.validate();
  params.validate();
  return composed_waste(protocol, params, period, ext, resolve(params, ext));
}

OptimalPeriod optimal_period_numeric(Protocol protocol,
                                     const Parameters& params,
                                     const Extensions& ext) {
  ext.validate();
  params.validate();
  // The factors do not depend on P: one renewal solve under Weibull
  // clustering, then ~400 cheap evaluations in the scan + Brent loop.
  const Factors factors = resolve(params, ext);
  return optimal_period_numeric_objective(
      protocol, params, [&](double period) {
        return composed_waste(protocol, params, period, ext, factors);
      });
}

double expected_makespan(Protocol protocol, const Parameters& params,
                         double period, double t_base) {
  if (!(t_base >= 0.0)) {
    throw std::invalid_argument("expected_makespan: t_base must be >= 0");
  }
  const double w = waste(protocol, params, period);
  if (w >= 1.0) return std::numeric_limits<double>::infinity();
  return t_base / (1.0 - w);
}

}  // namespace dckpt::model
