// Silent-error (SDC) axis of the waste model: verified checkpoints.
//
// Every k periods the application blocks for a verification of cost V; a
// silent strike (platform rate lambda_s) is caught by the next verification
// and rolled back to the newest checkpoint committed before the strike.
// model::waste (waste.hpp) composes it with the fail-stop waste W0(P) as
// one outer factor:
//
//   W_sdc(P) = 1 - (1 - W0(P)) (1 - V/(kP)) (1 - lambda_s L(P))   (Sec. 8)
//   L(P)     = R_rb + (k+1) P / 2
//
// The verification term V/(kP) is the fraction of each k-period interval
// spent verifying. The strike-loss term: a strike lands uniformly in the
// interval [0, kP) between verifications; detection waits until its end, and
// the rollback target is the commit at the start of the strike's period
// (floor(s/P) * P), so the expected re-executed span is
// E[kP - floor(s/P) P] = (k+1) P / 2, plus the recovery transfers R_rb
// (recovery_transfers(protocol) times R, the same multiple the fail-stop
// rollback pays).
//
// Deliberately neglected, mirroring the first-order fail-stop model:
// strike/failure interactions, degraded-rate re-execution after a verified
// rollback, and retention-depth exhaustion (the model assumes keep_last is
// large enough that a clean rung always exists; the simulator's fatal-accept
// path covers the complement).
#pragma once

#include <cstdint>

namespace dckpt::model {

/// Verified-checkpoint configuration, shared by the waste model and the
/// simulator (sim::SimConfig::sdc).
struct SdcSpec {
  double rate = 0.0;               ///< lambda_s: platform strike rate, 1/s
  double verify_cost = 0.0;        ///< V: blocking verification time, s
  std::uint64_t verify_every = 0;  ///< k: periods per verification (0 = off)

  bool enabled() const noexcept { return verify_every > 0; }

  /// Throws std::invalid_argument on a non-finite/negative rate or cost,
  /// or a positive rate with verification off (nothing would detect it).
  void validate() const;
};

}  // namespace dckpt::model
