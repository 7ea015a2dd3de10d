// Waste model (paper Sec. III and V).
//
// For a period P, the expected fraction of resources doing no useful work is
//
//   WASTE(P) = 1 - (1 - WASTE_fail)(1 - WASTE_ff)               (Eq. 4-5)
//   WASTE_ff   = (delta + phi) / P        (double protocols)
//              = 2 phi / P                (triple protocols)
//   WASTE_fail = F(P) / M
//
// where F is the expected time lost per failure, computed by conditioning on
// which of the three parts of the period the failure strikes (Eq. 6 / 13):
//
//   F = D + recovery + (len1 * RE1 + len2 * RE2 + len3 * RE3) / P
//
// Closed forms (validated by unit tests against the RE decomposition):
//
//   F_nbl = D + R + theta + P/2                                  (Eq. 7)
//   F_bof = D + 2R + theta - phi + P/2                           (Eq. 8)
//   F_tri = D + R + theta + P/2                                  (Eq. 14)
//
// DoubleBlocking is DoubleBof evaluated at the blocking point
// (theta = phi = R). TripleBof is our extension: add the two blocking
// replacement transfers (2R) and drop the 2*phi overlapped re-execution
// overhead, mirroring how the paper derives BOF from NBL.
//
// Every failure-model extension is a correction to this one formula, and
// expected_failure_cost, waste and optimal_period_numeric (period.hpp) take
// them as one Extensions value (docs/MODEL.md Sec. 5):
//
//   F      = D + g n R + m (checkpoint terms) + P/2 + (eta - 1/2) P
//   W_fail = gamma F / M_eff,   M_eff = M / (1 - r_t)
//   W_ff   = m (delta + phi) / P  (double),  m 2 phi / P  (triple)
//   W      = 1 - (1 - W_fail)(1 - W_ff)                          (Eq. 5)
//   W     <- 1 - (1 - W)(1 - V/(kP))(1 - lambda_s (g n R + (k+1) P/2))
//   W     <- 1 - (1 - W)(1 - lambda (r/p) C_p)
//                       (1 - lambda r_t (D + g n R + E[residual]))
//
// in that order: n = recovery_transfers(protocol); m and g come from the
// dcp axis (dcp.hpp), eta and gamma from Weibull clustering
// (nonexponential.hpp), the first outer factor from silent errors (sdc.hpp)
// and r_t, the second outer factor and E[residual] from the predictor
// (predictor.hpp). With every axis off each factor is exactly 1 (eta
// exactly 1/2), so the paper's model is reproduced bit for bit.
#pragma once

#include "model/dcp.hpp"
#include "model/nonexponential.hpp"
#include "model/parameters.hpp"
#include "model/predictor.hpp"
#include "model/protocol.hpp"
#include "model/sdc.hpp"

namespace dckpt::model {

/// Lengths of the three parts of the period for `protocol` with period `P`.
/// Throws if P < min_period(protocol, params).
struct PeriodParts {
  double part1 = 0.0;  ///< delta (double) or theta (triple)
  double part2 = 0.0;  ///< theta
  double part3 = 0.0;  ///< sigma = P - part1 - part2
};
PeriodParts period_parts(Protocol protocol, const Parameters& params,
                         double period);

/// Work accomplished per fault-free period: W = P - delta - phi (double),
/// P - 2 phi (triple), P - delta - R (DoubleBlocking).
double work_per_period(Protocol protocol, const Parameters& params,
                       double period);

/// Expected re-execution times RE_1..RE_3 conditioned on the failure
/// striking part 1, 2 or 3 (exposed for unit testing the F closed forms).
struct ReExecution {
  double re1 = 0.0;
  double re2 = 0.0;
  double re3 = 0.0;
};
ReExecution expected_reexecution(Protocol protocol, const Parameters& params,
                                 double period);

/// The failure-model extensions of the paper's waste, each off by default.
/// One value describes any mix; the composition is the one above.
struct Extensions {
  WeibullFailures weibull;  ///< clustered failures; off at shape 1
  SdcSpec sdc;              ///< silent errors; off at verify_every 0
  PredictorSpec predictor;  ///< fault prediction; off at recall 0
  DcpSpec dcp;              ///< differential checkpoints; off at stack 0

  /// Throws std::invalid_argument when any axis's spec is invalid.
  void validate() const;
};

/// Expected total time lost per failure, F(P) (closed form), under `ext`:
/// the dcp multipliers scale its transfer terms and Weibull clustering
/// moves its mid-period loss from P/2 to eta P.
double expected_failure_cost(Protocol protocol, const Parameters& params,
                             double period, const Extensions& ext = {});

/// Same value computed from the RE decomposition (Eq. 6/13); used by tests
/// to certify the closed form.
double expected_failure_cost_from_parts(Protocol protocol,
                                        const Parameters& params,
                                        double period);

/// Fault-free waste WASTE_ff(P).
double waste_fault_free(Protocol protocol, const Parameters& params,
                        double period);

/// Failure-induced waste WASTE_fail(P) = F(P) / M.
double waste_failure(Protocol protocol, const Parameters& params,
                     double period);

/// Total waste by the product composition (Eq. 5) under `ext`, clamped to
/// [0, 1]. Returns 1 when the platform cannot progress (a failure or
/// fault-free term, or an outer factor, reaches 1).
double waste(Protocol protocol, const Parameters& params, double period,
             const Extensions& ext = {});

/// Expected makespan for an application of fault-free work `t_base`:
/// T = t_base / (1 - WASTE). Returns +inf when WASTE >= 1.
double expected_makespan(Protocol protocol, const Parameters& params,
                         double period, double t_base);

}  // namespace dckpt::model
