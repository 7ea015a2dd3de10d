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
// pair. For the same reason the oracle spells the placement rule (pairs:
// own node then buddy; triples: preferred then secondary buddy) itself
// instead of asking ckpt::GroupAssignment::holders(), which every other
// layer uses. What the two sides share is vocabulary only: the prediction
// is a runtime::RunReport, compared counter by counter over
// kOracleCounters, and injections pass runtime::validate_injections().
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

/// What the oracle predicts is a runtime report: the counters below, plus
/// `fatal`, `fatal_node` and `fatal_step`. The older name stays for callers
/// that spell it.
using ShadowPrediction = runtime::RunReport;

/// One RunReport counter the oracle predicts, with its stable export name.
struct OracleCounter {
  const char* name;
  std::uint64_t runtime::RunReport::* field;
};

/// Every counter the oracle predicts, in RunReport order. The chaos
/// classifier compares them in this order (a violation names the first
/// that diverges), and the `predicted` and `report` JSONL sub-records
/// export them under these names.
inline constexpr OracleCounter kOracleCounters[] = {
    {"steps_executed", &runtime::RunReport::steps_executed},
    {"replayed_steps", &runtime::RunReport::replayed_steps},
    {"checkpoints", &runtime::RunReport::checkpoints},
    {"failures", &runtime::RunReport::failures},
    {"rollbacks", &runtime::RunReport::rollbacks},
    {"recoveries", &runtime::RunReport::recoveries},
    {"rereplications", &runtime::RunReport::rereplications},
    {"risk_steps", &runtime::RunReport::risk_steps},
    {"failovers", &runtime::RunReport::failovers},
    {"transfer_retries", &runtime::RunReport::transfer_retries},
    {"corrupt_images_detected", &runtime::RunReport::corrupt_images_detected},
    {"degraded_steps", &runtime::RunReport::degraded_steps},
    {"hash_verified_recoveries", &runtime::RunReport::hash_verified_recoveries},
    {"sdc_injected", &runtime::RunReport::sdc_injected},
    {"verifications_run", &runtime::RunReport::verifications_run},
    {"sdc_detected", &runtime::RunReport::sdc_detected},
    {"rollback_depth", &runtime::RunReport::rollback_depth},
    {"alarms_raised", &runtime::RunReport::alarms_raised},
    {"proactive_ckpts", &runtime::RunReport::proactive_ckpts},
    {"true_predictions", &runtime::RunReport::true_predictions},
    {"missed_failures", &runtime::RunReport::missed_failures},
    {"delta_commits", &runtime::RunReport::delta_commits},
    {"full_commits", &runtime::RunReport::full_commits},
    {"chain_replays", &runtime::RunReport::chain_replays},
    {"chain_replay_depth", &runtime::RunReport::chain_replay_depth},
    {"torn_chain_failovers", &runtime::RunReport::torn_chain_failovers},
};

/// Runs the abstract machine for `config` under `failures` (same contract
/// as the coordinators' run(): each injection fires at most once, in step
/// order, corruption before transfer-fault arming before losses within a
/// step). Throws std::invalid_argument on a malformed injection (node,
/// step, or corrupt target), exactly like the runtimes do.
///
/// The oracle moves no data, so it fills only kOracleCounters, `fatal`,
/// `fatal_node` and `fatal_step`; `bytes_replicated`, `cow_copies`,
/// `final_hash`, `fatal_reason` and `degraded` stay at their defaults.
runtime::RunReport predict_outcome(
    const ShadowConfig& config,
    std::span<const runtime::FailureInjection> failures);

}  // namespace dckpt::chaos
