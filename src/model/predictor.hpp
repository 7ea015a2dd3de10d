// Fault-prediction axis of the waste model (arXiv:1207.6936 /
// arXiv:1302.4558): a predictor with precision p and recall r announces a
// fraction r of failures ahead of time; every alarm (true or false) triggers
// a blocking proactive checkpoint of cost C_p.
//
// A true alarm leads its failure by a uniform draw in (0, w) when the
// prediction window w is positive, and by exactly C_p when w == 0 (the
// just-in-time limit). Only alarms whose lead is at least C_p actually save
// the in-progress work -- the proactive checkpoint must complete before the
// failure lands -- so the *handled* recall is
//
//   r_t = r * q,   q = 1             when w == 0
//                  q = max(0, w - C_p) / w  otherwise.
//
// model::waste (waste.hpp) composes it with the fail-stop waste W0(P):
//
//   W_pred(P) = 1 - (1 - W0(P; M/(1 - r_t)))
//                   (1 - lambda (r/p) C_p)
//                   (1 - lambda r_t (D + R_rb + E[residual]))
//   E[residual] = (w - C_p)/2 when w > 0, else 0
//
// The first factor is the fail-stop waste at the *effective* MTBF
// M/(1 - r_t): the failures the predictor handles no longer cost a period
// rollback, so the rollback-bearing failure rate shrinks to lambda(1 - r_t)
// -- which is also why the optimal period grows like 1/sqrt(1 - r_t), the
// papers' headline closed form. The second factor charges every alarm
// (true alarms arrive at lambda r; precision p means a fraction (1-p) of
// all alarms are false, so the total alarm rate is lambda r / p) its
// proactive checkpoint C_p. The third factor charges each handled failure
// its unavoidable downtime D, recovery transfers R_rb
// (recovery_transfers(protocol) times R, as a fail-stop rollback) and the
// expected work completed after the proactive commit and lost anyway
// (uniform lead in (C_p, w) leaves (w - C_p)/2 on average; zero in the
// just-in-time limit).
//
// Deliberately neglected, mirroring the first-order fail-stop model:
// alarm/failure interactions (an alarm landing during repair is dropped),
// the skip-if-just-committed optimization, and degraded-rate re-execution
// after a predicted failure.
#pragma once

namespace dckpt::model {

/// Fault-predictor configuration, shared by the waste model and the
/// simulator (sim::SimConfig::predictor).
struct PredictorSpec {
  double precision = 1.0;      ///< p: fraction of alarms that are true
  double recall = 0.0;         ///< r: fraction of failures predicted
  double window = 0.0;         ///< w: alarm lead-time window width, s
  double proactive_cost = 0.0; ///< C_p: blocking proactive checkpoint, s

  bool enabled() const noexcept { return recall > 0.0; }

  /// Throws std::invalid_argument on recall/precision outside [0, 1],
  /// precision == 0 with recall > 0, or non-finite/negative window/cost.
  void validate() const;
};

/// Handled recall r_t = r * q: the fraction of failures whose alarm leads by
/// at least C_p, so the proactive checkpoint completes before the failure.
double effective_recall(const PredictorSpec& spec);

}  // namespace dckpt::model
