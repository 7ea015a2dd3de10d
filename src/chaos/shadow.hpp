// Shadow oracle: an abstract replica-state machine that predicts, without
// touching any application data, what a runtime coordinator must do under a
// failure schedule -- survive, fail over around corrupt replicas, or enter
// degraded mode after unrecoverable data loss -- and with exactly which
// accounting (rollbacks, replays, checkpoints, recoveries, failovers,
// refills, retries, corruption detections, risk-window and degraded steps).
//
// The oracle tracks a per-(holder, owner) image state -- absent, clean, or
// corrupt -- because corruption makes store contents no longer
// all-or-nothing: a committed exchange sets every designated slot clean, a
// destroyed node empties its own row, CorruptReplica flips one slot, and a
// refill delivery re-files slots one source scan at a time (skipping
// corrupt sources). A rollback walks each node's replica ladder exactly
// like the runtime: corrupt images are skipped (detected), a later clean
// candidate is a failover, and an exhausted ladder marks the node lost --
// the run continues degraded until the next commit readmits it.
//
// The machine is deliberately topology-agnostic: buddy placement follows
// racks (consecutive row-major node ids), not the application's domain
// decomposition, so the *same* step/commit/refill machine covers both the
// 1-D chain Coordinator and the 2-D GridCoordinator. ShadowConfig is the
// runtimes' CheckpointPolicy, which converts implicitly from either runtime
// config so existing call sites keep reading naturally.
//
// This is deliberately an *independent reimplementation* of the control
// flow in runtime/checkpoint_driver.cpp (same step/commit/refill ordering,
// none of the data movement): the chaos campaign runs both and any
// divergence -- outcome or counter -- is classified `violated`, i.e. a bug
// in one of the two. Property tests drive random schedules through the
// pair.
#pragma once

#include <cstdint>
#include <span>

#include "runtime/coordinator.hpp"
#include "runtime/grid.hpp"

namespace dckpt::chaos {

/// The protocol shape the oracle steps is the runtimes' own
/// CheckpointPolicy: both runtime configs convert implicitly, so
/// `predict_outcome(config.runtime, ...)` and `predict_outcome(grid_config,
/// ...)` both read naturally.
using ShadowConfig = runtime::CheckpointPolicy;

struct ShadowPrediction {
  bool fatal = false;                    ///< run enters degraded mode
  std::uint64_t fatal_step = 0;          ///< step of the exhausted rollback
  std::uint64_t unrecoverable_node = 0;  ///< first node with no replica left
  // Mirrors of the RunReport counters the oracle can derive.
  std::uint64_t steps_executed = 0;
  std::uint64_t replayed_steps = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t failures = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t rereplications = 0;
  std::uint64_t risk_steps = 0;
  std::uint64_t failovers = 0;
  std::uint64_t transfer_retries = 0;
  std::uint64_t corrupt_images_detected = 0;
  std::uint64_t degraded_steps = 0;
  std::uint64_t hash_verified_recoveries = 0;
  std::uint64_t sdc_injected = 0;
  std::uint64_t verifications_run = 0;
  std::uint64_t sdc_detected = 0;
  std::uint64_t rollback_depth = 0;
  std::uint64_t alarms_raised = 0;
  std::uint64_t proactive_ckpts = 0;
  std::uint64_t true_predictions = 0;
  std::uint64_t missed_failures = 0;
  std::uint64_t delta_commits = 0;
  std::uint64_t full_commits = 0;
  std::uint64_t chain_replays = 0;
  std::uint64_t chain_replay_depth = 0;
  std::uint64_t torn_chain_failovers = 0;
};

/// Runs the abstract machine for `config` under `failures` (same contract
/// as the coordinators' run(): each injection fires at most once, in step
/// order, corruption before transfer-fault arming before losses within a
/// step). Throws std::invalid_argument on a malformed injection (node,
/// step, or corrupt target), exactly like the runtimes do.
ShadowPrediction predict_outcome(
    const ShadowConfig& config,
    std::span<const runtime::FailureInjection> failures);

}  // namespace dckpt::chaos
