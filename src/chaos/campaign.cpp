#include "chaos/campaign.hpp"

#include <stdexcept>
#include <utility>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace dckpt::chaos {

namespace {

/// First counter that diverges between runtime report and oracle, as a
/// "name: runtime X, oracle Y" diagnosis ("" when they agree). Fatal runs
/// now complete in degraded mode, so every counter is compared on every
/// run -- including the corruption/retry/degraded accounting.
std::string counter_divergence(const runtime::RunReport& report,
                               const runtime::RunReport& predicted) {
  for (const OracleCounter& counter : kOracleCounters) {
    const std::uint64_t got = report.*counter.field;
    const std::uint64_t want = predicted.*counter.field;
    if (got != want) {
      return std::string(counter.name) + ": runtime " + std::to_string(got) +
             ", oracle " + std::to_string(want);
    }
  }
  return "";
}

}  // namespace

std::string_view outcome_name(ChaosOutcome outcome) {
  switch (outcome) {
    case ChaosOutcome::Survived: return "survived";
    case ChaosOutcome::FatalDetected: return "fatal-detected";
    case ChaosOutcome::Violated: break;
  }
  return "violated";
}

void ChaosCampaignConfig::validate() const {
  if (grid) {
    grid->validate();
    if (kernel != "heat") {
      throw std::invalid_argument(
          "ChaosCampaignConfig: grid campaigns support only the heat kernel, "
          "got '" + kernel + "'");
    }
  } else {
    runtime.validate();
    if (kernel != "heat" && kernel != "wave" && kernel != "counter") {
      throw std::invalid_argument("ChaosCampaignConfig: unknown kernel '" +
                                  kernel + "'");
    }
    if (kernel == "wave" && runtime.cells_per_node % 2 != 0) {
      throw std::invalid_argument(
          "ChaosCampaignConfig: wave kernel packs two time levels and needs "
          "an even cells_per_node");
    }
  }
  if (random_runs > 0 && max_failures == 0) {
    throw std::invalid_argument(
        "ChaosCampaignConfig: max_failures must be > 0");
  }
}

ShadowConfig ChaosCampaignConfig::shadow() const {
  return grid ? ShadowConfig(*grid) : ShadowConfig(runtime);
}

std::unique_ptr<runtime::Kernel> make_kernel(const std::string& name) {
  if (name == "heat") return std::make_unique<runtime::HeatKernel>();
  if (name == "wave") return std::make_unique<runtime::WaveKernel>();
  if (name == "counter") return std::make_unique<runtime::CounterKernel>();
  throw std::invalid_argument("make_kernel: unknown kernel '" + name + "'");
}

std::unique_ptr<runtime::GridKernel> make_grid_kernel(
    const std::string& name) {
  if (name == "heat") return std::make_unique<runtime::HeatKernel2D>();
  throw std::invalid_argument("make_grid_kernel: unknown kernel '" + name +
                              "'");
}

namespace {

/// Executes the campaign's target runtime through one schedule
/// (single-threaded stepping -- the campaign parallelizes across runs).
runtime::RunReport execute_target(
    const ChaosCampaignConfig& config,
    std::span<const runtime::FailureInjection> failures) {
  if (config.grid) {
    runtime::GridConfig gc = *config.grid;
    gc.threads = 1;
    runtime::GridCoordinator coordinator(gc, make_grid_kernel(config.kernel));
    return coordinator.run(failures);
  }
  runtime::RuntimeConfig rc = config.runtime;
  rc.threads = 1;
  runtime::Coordinator coordinator(rc, make_kernel(config.kernel));
  return coordinator.run(failures);
}

}  // namespace

runtime::RunReport reference_run(const ChaosCampaignConfig& config) {
  config.validate();
  runtime::RunReport report = execute_target(config, {});
  if (report.fatal) {
    throw std::logic_error("reference_run: failure-free run reported fatal");
  }
  return report;
}

ChaosRunResult classify_run(const ChaosCampaignConfig& config,
                            ChaosSchedule schedule,
                            const runtime::RunReport& predicted,
                            std::uint64_t reference_hash,
                            std::uint64_t index) {
  config.validate();
  runtime::validate_injections(schedule.failures, config.shadow());

  ChaosRunResult result;
  result.index = index;
  result.target = config.target();
  result.schedule = std::move(schedule);
  result.repro = repro_command(config, result.schedule);
  result.predicted = predicted;

  try {
    result.report = execute_target(config, result.schedule.failures);
  } catch (const std::exception& error) {
    result.outcome = ChaosOutcome::Violated;
    result.detail = std::string("runtime threw: ") + error.what();
    return result;
  }

  const std::string divergence =
      counter_divergence(result.report, result.predicted);
  if (result.report.fatal) {
    if (!result.predicted.fatal) {
      result.outcome = ChaosOutcome::Violated;
      result.detail = "runtime lost data on a survivable schedule: " +
                      result.report.fatal_reason;
    } else if (result.report.fatal_node != result.predicted.fatal_node ||
               result.report.fatal_step != result.predicted.fatal_step ||
               !result.report.degraded) {
      // Typed comparison -- no string matching on fatal_reason.
      result.outcome = ChaosOutcome::Violated;
      result.detail =
          "wrong fatal report: got node " +
          std::to_string(result.report.fatal_node) + " at step " +
          std::to_string(result.report.fatal_step) +
          (result.report.degraded ? "" : " (not degraded)") + ", want node " +
          std::to_string(result.predicted.fatal_node) + " at step " +
          std::to_string(result.predicted.fatal_step);
    } else if (!divergence.empty()) {
      result.outcome = ChaosOutcome::Violated;
      result.detail = "accounting diverges from the oracle (" + divergence +
                      ")";
    } else {
      result.outcome = ChaosOutcome::FatalDetected;
      result.detail = result.report.fatal_reason;
    }
  } else {
    if (result.predicted.fatal) {
      result.outcome = ChaosOutcome::Violated;
      result.detail =
          "runtime claims survival of a schedule that destroys every replica "
          "of node " + std::to_string(result.predicted.fatal_node);
    } else if (result.report.final_hash != reference_hash) {
      result.outcome = ChaosOutcome::Violated;
      result.detail = "final state diverges from the failure-free run";
    } else if (!divergence.empty()) {
      result.outcome = ChaosOutcome::Violated;
      result.detail = "accounting diverges from the oracle (" + divergence +
                      ")";
    } else {
      result.outcome = ChaosOutcome::Survived;
    }
  }
  return result;
}

ChaosRunResult run_one(const ChaosCampaignConfig& config,
                       ChaosSchedule schedule, std::uint64_t reference_hash,
                       std::uint64_t index) {
  config.validate();
  const runtime::RunReport predicted =
      predict_outcome(config.shadow(), schedule.failures);
  return classify_run(config, std::move(schedule), predicted, reference_hash,
                      index);
}

ChaosCampaignSummary run_campaign(const ChaosCampaignConfig& config) {
  config.validate();
  ChaosCampaignSummary summary;
  summary.target = config.target();
  if (config.grid) {
    summary.grid_geometry = std::to_string(config.grid->grid_rows) + "x" +
                            std::to_string(config.grid->grid_cols);
    summary.block_geometry = std::to_string(config.grid->block_rows) + "x" +
                             std::to_string(config.grid->block_cols);
  }
  summary.reference_hash = reference_run(config).final_hash;

  std::vector<ChaosSchedule> schedules;
  if (config.include_scripted) {
    schedules = config.grid ? scripted_grid_schedules(*config.grid)
                            : scripted_schedules(config.runtime);
  }
  const ShadowConfig shape = config.shadow();
  util::SplitMix64 seeder(config.campaign_seed);
  for (std::uint64_t i = 0; i < config.random_runs; ++i) {
    schedules.push_back(
        random_schedule(shape, seeder.next(), config.max_failures));
  }

  // One task per run; results land at their index, so the summary is
  // identical at any thread count.
  summary.runs.resize(schedules.size());
  util::ThreadPool pool(config.threads);
  util::parallel_for_chunked(
      pool, schedules.size(), schedules.size(),
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          summary.runs[i] = run_one(config, schedules[i],
                                    summary.reference_hash, i);
        }
      });

  for (const ChaosRunResult& run : summary.runs) {
    switch (run.outcome) {
      case ChaosOutcome::Survived: ++summary.survived; break;
      case ChaosOutcome::FatalDetected: ++summary.fatal_detected; break;
      case ChaosOutcome::Violated: ++summary.violated; break;
    }
  }
  return summary;
}

std::string repro_command(const ChaosCampaignConfig& config,
                          const ChaosSchedule& schedule) {
  const ShadowConfig policy = config.shadow();
  std::string cmd = "dckpt chaos --topology=";
  cmd += policy.topology == ckpt::Topology::Pairs ? "pairs" : "triples";
  if (config.grid) {
    const runtime::GridConfig& gc = *config.grid;
    cmd += " --grid=" + std::to_string(gc.grid_rows) + "x" +
           std::to_string(gc.grid_cols);
    cmd += " --block=" + std::to_string(gc.block_rows) + "x" +
           std::to_string(gc.block_cols);
  } else {
    cmd += " --nodes=" + std::to_string(config.runtime.nodes);
    cmd += " --cells=" + std::to_string(config.runtime.cells_per_node);
  }
  cmd += " --steps=" + std::to_string(policy.total_steps);
  cmd += " --interval=" + std::to_string(policy.checkpoint_interval);
  if (!config.grid) {  // the grid always commits immediately
    cmd += " --staging=" + std::to_string(policy.staging_steps);
  }
  cmd += " --rerepl-delay=" + std::to_string(policy.rereplication_delay_steps);
  cmd += " --retry-max=" + std::to_string(policy.transfer_retry.max_attempts);
  cmd += " --retry-base=" +
         std::to_string(policy.transfer_retry.base_delay_steps);
  cmd += " --verify-every=" + std::to_string(policy.verify_every);
  cmd += " --keep-last=" + std::to_string(policy.keep_last);
  cmd += " --dcp-stack=" + std::to_string(policy.dcp_stack_size);
  cmd += " --dcp-block=" + std::to_string(policy.dcp_block_size);
  cmd += " --kernel=" + config.kernel;
  cmd += " --seed=" + std::to_string(schedule.seed);
  cmd += " --schedule=" + schedule.spec();
  return cmd;
}

}  // namespace dckpt::chaos
