// Chaos campaigns: run a runtime coordinator (1-D chain or 2-D grid)
// through adversarial failure schedules and classify every run against the
// shadow oracle.
//
//   Survived        -- runtime finished, final hash equals the failure-free
//                      reference, every counter matches the oracle
//                      (including failovers around corrupt replicas and
//                      transfer retries -- surviving damage still counts as
//                      Survived when the final state is bit-exact).
//   FatalDetected   -- the schedule destroys or corrupts every replica of
//                      some node; the runtime detected that, entered
//                      degraded mode (typed fatal_node/fatal_step, no
//                      exception), and finished exactly as the oracle
//                      predicted, counters included.
//   Violated        -- anything else: wrong final state, fatal on a
//                      survivable schedule, silent survival of a fatal one,
//                      wrong fatal node/step, counter divergence, or an
//                      unexpected exception. Every violation is a bug in
//                      the runtime or the oracle.
//
// Each run carries a one-line `dckpt chaos ...` repro command (seed and
// schedule spelled out), so a campaign failure reproduces from the shell.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "chaos/schedule.hpp"
#include "chaos/shadow.hpp"
#include "runtime/coordinator.hpp"
#include "runtime/grid.hpp"

namespace dckpt::chaos {

enum class ChaosOutcome { Survived, FatalDetected, Violated };

std::string_view outcome_name(ChaosOutcome outcome);

struct ChaosCampaignConfig {
  runtime::RuntimeConfig runtime;
  /// When set, the campaign targets the 2-D GridCoordinator instead of the
  /// 1-D chain: `runtime` is ignored, schedules come from
  /// scripted_grid_schedules(), and the oracle predicts through the grid's
  /// protocol shape (immediate commit, same refill clock). The kernel must
  /// be "heat" (the only 2-D kernel).
  std::optional<runtime::GridConfig> grid;
  std::string kernel = "heat";      ///< heat | wave | counter (grid: heat)
  std::uint64_t random_runs = 100;  ///< randomized schedules after scripted
  std::uint64_t campaign_seed = 1;  ///< root seed for the random draws
  std::uint64_t max_failures = 4;   ///< per random schedule
  bool include_scripted = true;     ///< prepend scripted_schedules()
  std::size_t threads = 0;          ///< campaign-level pool; 0 = hardware

  void validate() const;  ///< throws std::invalid_argument

  /// The oracle's view of whichever runtime this campaign targets.
  ShadowConfig shadow() const;
  /// "grid" or "chain" -- the stable target id used in exports.
  std::string_view target() const noexcept { return grid ? "grid" : "chain"; }
};

struct ChaosRunResult {
  std::uint64_t index = 0;
  std::string target = "chain";  ///< "chain" | "grid" (stable export id)
  ChaosSchedule schedule;
  runtime::RunReport predicted;  ///< the oracle's report for `schedule`
  runtime::RunReport report;
  ChaosOutcome outcome = ChaosOutcome::Violated;
  std::string detail;  ///< violation diagnosis or the runtime's fatal reason
  std::string repro;   ///< one-line `dckpt chaos ...` command
};

struct ChaosCampaignSummary {
  std::vector<ChaosRunResult> runs;  ///< scripted first, then random
  std::uint64_t survived = 0;
  std::uint64_t fatal_detected = 0;
  std::uint64_t violated = 0;
  std::uint64_t reference_hash = 0;  ///< failure-free final state hash
  std::string target = "chain";      ///< "chain" | "grid" (stable export id)
  std::string grid_geometry;         ///< "RxC" on grid campaigns, else ""
  std::string block_geometry;        ///< "RxC" on grid campaigns, else ""
};

/// Kernel factory for the names ChaosCampaignConfig::kernel accepts.
/// Throws std::invalid_argument on an unknown name.
std::unique_ptr<runtime::Kernel> make_kernel(const std::string& name);

/// 2-D kernel factory for grid campaigns ("heat" only).
/// Throws std::invalid_argument on an unknown name.
std::unique_ptr<runtime::GridKernel> make_grid_kernel(const std::string& name);

/// Failure-free reference run (single-threaded stepping; both coordinators
/// are thread-count invariant, so this hash is *the* correct final state).
runtime::RunReport reference_run(const ChaosCampaignConfig& config);

/// Runs the campaign's target runtime through `schedule` and classifies the
/// outcome against a caller-supplied oracle prediction. This is run_one()
/// with the prediction injectable -- the seam the mutation tests use to
/// prove the classifier actually flags divergence (feed it a prediction
/// from a deliberately wrong protocol shape and expect Violated).
ChaosRunResult classify_run(const ChaosCampaignConfig& config,
                            ChaosSchedule schedule,
                            const runtime::RunReport& predicted,
                            std::uint64_t reference_hash,
                            std::uint64_t index = 0);

/// Runs and classifies one schedule against the real oracle prediction.
/// `reference_hash` comes from reference_run(); `index` only labels the
/// result.
ChaosRunResult run_one(const ChaosCampaignConfig& config,
                       ChaosSchedule schedule, std::uint64_t reference_hash,
                       std::uint64_t index = 0);

/// Full campaign: scripted danger cases (optional) plus `random_runs`
/// seed-derived random schedules, executed across `threads` workers with
/// per-run results in deterministic (index) order regardless of thread
/// count.
ChaosCampaignSummary run_campaign(const ChaosCampaignConfig& config);

/// The `dckpt chaos` command line that replays `schedule` under `config`.
std::string repro_command(const ChaosCampaignConfig& config,
                          const ChaosSchedule& schedule);

}  // namespace dckpt::chaos
