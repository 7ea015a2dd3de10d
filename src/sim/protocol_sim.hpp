// Discrete-event execution of one application run under a buddy-checkpointing
// protocol (the paper's evaluation substrate).
//
// The platform is coordinated: any failure rolls every node back to the last
// committed checkpoint set, so a single global timeline suffices. The engine
// is an exact event-driven integration of the period structure:
//
//   normal operation   Part1 -> Part2 -> Part3 -> Part1 -> ...
//   failure (any phase)   rollback to committed level, then
//                         Down(D) -> Recover -> Reexec -> resume the
//                         interrupted phase at its saved offset
//   verification          every k periods a blocking Verify(V) phase runs at
//                         the period boundary; detected silent corruption
//                         rolls back to the shallowest clean retained
//                         checkpoint (Recover -> Reexec -> fresh period)
//
// Work rates per phase follow the overlap model: 0 during a blocking local
// checkpoint, (theta - phi)/theta during overlapped transfers, 1 at full
// speed. Commit points: end of part 2 for pair protocols (both copies in
// place), end of part 1 for triple protocols (preferred-buddy copy in
// place). Re-execution runs degraded while recovery transfers are still
// streaming in (window theta for DoubleNBL, 2*theta for Triple, none for the
// blocking-on-failure variants), exactly mirroring the model's RE terms.
//
// Failures arriving *during* failure handling are processed too (the
// analytic model neglects them to first order): the rollback target is
// unchanged and downtime restarts. Fatal failures -- a buddy (or both
// buddies) struck inside the exposure window -- are detected by RiskTracker.
#pragma once

#include <memory>

#include "model/dcp.hpp"
#include "model/parameters.hpp"
#include "model/predictor.hpp"
#include "model/protocol.hpp"
#include "model/sdc.hpp"
#include "sim/failure_injector.hpp"
#include "sim/metrics.hpp"
#include "sim/risk_tracker.hpp"
#include "sim/trace.hpp"

namespace dckpt::sim {

struct SimConfig {
  model::Protocol protocol = model::Protocol::DoubleNbl;
  model::Parameters params;
  double period = 0.0;  ///< checkpoint period P (>= model::min_period)
  double t_base = 0.0;  ///< useful work to complete
  bool stop_on_fatal = true;   ///< end the run at the first fatal failure
  double max_makespan = 0.0;   ///< livelock guard; 0 = 10^4 * t_base

  // Silent-error (SDC) extension with verified checkpoints (model/sdc.hpp,
  // the same spec the waste model takes). Strikes arrive as a
  // platform-wide Poisson process at rate `sdc.rate` (drawn from a salted
  // copy of the trial's RNG stream, so enabling them never perturbs the
  // fail-stop arrival sequence). A strike silently taints the live state;
  // every snapshot captured afterwards inherits the taint, and a fail-stop
  // rollback re-introduces whatever taint the restored snapshot carries.
  // Every `sdc.verify_every` completed periods (0 = off) the run blocks for
  // `sdc.verify_cost` seconds of verification; a verification that finds
  // the live state tainted rolls back to the shallowest clean rung of the
  // keep-last-`keep_last` retained-checkpoint ladder (recovery transfer R,
  // then re-execution), or -- when every retained snapshot is tainted --
  // reports a fatal run and accepts the corrupt state as the new truth.
  model::SdcSpec sdc;
  std::uint64_t keep_last = 1;  ///< l: retained committed checkpoint sets

  // Fault prediction (arXiv:1207.6936 / arXiv:1302.4558; model/predictor.hpp,
  // the same spec the waste model takes). A predictor with recall r
  // (0 = off) announces each upcoming failure independently with
  // probability r (one decision per pending failure, drawn from a salted
  // copy of the trial's RNG stream); precision p tunes an independent
  // Poisson stream of false alarms at platform rate (r/M)(1-p)/p. A true
  // alarm leads its failure by `proactive_cost` exactly when window == 0
  // (just in time), or by a uniform draw in (0, window) otherwise. Every
  // alarm triggers a blocking proactive checkpoint of cost
  // `proactive_cost`, skipped while repairing/verifying or when nothing new
  // would be saved.
  model::PredictorSpec predictor;

  // Differential checkpointing (model/dcp.hpp). When enabled
  // (dcp.stack_size > 0) the exchange phases shrink to the effective dirty
  // fraction m of their full-image length (the compute phase absorbs the
  // difference, keeping the period length at P) and recovery transfers
  // grow by the expected base-plus-chain replay factor g. Composes with
  // every other axis (Weibull arrivals, SDC, prediction).
  model::DcpSpec dcp;

  void validate() const;
};

class ProtocolSimulation {
 public:
  /// The injector's node count must match params.nodes and be a multiple of
  /// the protocol's group size. `stream_seed` must be the same seed the
  /// injector's RNG stream was built from -- the silent-error strike stream
  /// is derived from it by salting (only consulted when sdc.rate > 0).
  ProtocolSimulation(SimConfig config,
                     std::unique_ptr<FailureInjector> injector,
                     std::uint64_t stream_seed = 0);

  /// Runs one complete execution. Pass a Trace to capture the event log.
  TrialResult run(Trace* trace = nullptr);

 private:
  SimConfig config_;
  std::unique_ptr<FailureInjector> injector_;
  std::uint64_t stream_seed_ = 0;
};

/// Convenience: simulate with a platform-level exponential injector seeded
/// from `seed`.
TrialResult simulate_exponential(const SimConfig& config, std::uint64_t seed,
                                 Trace* trace = nullptr);

}  // namespace dckpt::sim
