// Thread-count parity of the runtimes' recovery paths, shared by the chain
// and grid chaos suites.
//
// chaos::run_one steps every runtime on one thread, so neither the oracle
// parity tests nor the chaos smoke campaigns ever run a rollback's per-node
// ladder walks concurrently. expect_thread_count_invariant() runs every
// scripted schedule of a campaign config plus 40 random draws, builds the
// runtime directly at 1, 2 and 4 stepping threads, and requires the same
// RunReport from each -- every counter, the fatal fields and the final
// hash -- while the oracle must classify the one-thread run as not
// violated. It also tallies which recovery paths the runs reached, so a
// caller can check that the schedules exercise what they claim to.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "chaos/chaos_api.hpp"
#include "util/rng.hpp"

namespace dckpt::test {

/// How many runs reached each recovery path: a later rung served after a
/// skipped one, a rung skipped for a torn layer, an exhausted ladder (blank
/// restart), a verification that dropped at least one retained set, and
/// the last two in one run.
struct RecoveryPaths {
  std::size_t failed_over = 0;
  std::size_t torn_failed_over = 0;
  std::size_t exhausted = 0;
  std::size_t verified_rollbacks = 0;
  std::size_t exhausted_then_verified = 0;
};

/// The campaign's runtime, built directly at `threads` stepping threads.
inline runtime::RunReport run_at_threads(
    const chaos::ChaosCampaignConfig& config, std::size_t threads,
    std::span<const runtime::FailureInjection> failures) {
  if (config.grid) {
    runtime::GridConfig grid = *config.grid;
    grid.threads = threads;
    runtime::GridCoordinator coordinator(
        grid, chaos::make_grid_kernel(config.kernel));
    return coordinator.run(failures);
  }
  runtime::RuntimeConfig chain = config.runtime;
  chain.threads = threads;
  runtime::Coordinator coordinator(chain, chaos::make_kernel(config.kernel));
  return coordinator.run(failures);
}

/// Every field where `got` differs from `want`, for a failure message.
inline std::string report_difference(const runtime::RunReport& got,
                                     const runtime::RunReport& want) {
  std::ostringstream out;
  for (const auto& counter : chaos::kOracleCounters) {
    if (got.*(counter.field) != want.*(counter.field)) {
      out << ' ' << counter.name << ' ' << got.*(counter.field) << " vs "
          << want.*(counter.field);
    }
  }
  const auto field = [&](const char* name, const auto& a, const auto& b) {
    if (a != b) out << ' ' << name << ' ' << a << " vs " << b;
  };
  field("bytes_replicated", got.bytes_replicated, want.bytes_replicated);
  field("cow_copies", got.cow_copies, want.cow_copies);
  field("fatal", got.fatal, want.fatal);
  field("degraded", got.degraded, want.degraded);
  field("fatal_node", got.fatal_node, want.fatal_node);
  field("fatal_step", got.fatal_step, want.fatal_step);
  field("fatal_reason", got.fatal_reason, want.fatal_reason);
  field("final_hash", got.final_hash, want.final_hash);
  return out.str();
}

/// Runs the scripted schedules of `config`, the schedules `extra` spells
/// and 40 random draws seeded from `seed` (as a campaign draws them) at 1,
/// 2 and 4 stepping threads, and adds the paths the runs reached to
/// `reached`.
inline void expect_thread_count_invariant(
    const chaos::ChaosCampaignConfig& config, std::uint64_t seed,
    RecoveryPaths& reached, const std::vector<std::string>& extra = {}) {
  std::vector<chaos::ChaosSchedule> schedules =
      config.grid ? chaos::scripted_grid_schedules(*config.grid)
                  : chaos::scripted_schedules(config.runtime);
  for (const std::string& spec : extra) {
    schedules.push_back(chaos::ChaosSchedule::parse(spec));
  }
  util::SplitMix64 seeder(seed);
  for (int i = 0; i < 40; ++i) {
    schedules.push_back(chaos::random_schedule(config.shadow(), seeder.next(),
                                               config.max_failures));
  }
  const std::uint64_t reference = chaos::reference_run(config).final_hash;
  for (const chaos::ChaosSchedule& schedule : schedules) {
    const chaos::ChaosRunResult run =
        chaos::run_one(config, schedule, reference);
    EXPECT_NE(run.outcome, chaos::ChaosOutcome::Violated)
        << run.detail << "\n  " << run.repro;
    for (const std::size_t threads : {1, 2, 4}) {
      const runtime::RunReport report =
          run_at_threads(config, threads, schedule.failures);
      EXPECT_TRUE(report == run.report)
          << threads << " threads:" << report_difference(report, run.report)
          << "\n  " << run.repro;
    }
    const runtime::RunReport& r = run.report;
    const bool exhausted =
        r.fatal && std::string_view(r.fatal_reason).starts_with(
                       "fatal failure: no surviving replica");
    const bool verified = r.rollback_depth > 0;
    if (r.failovers > 0) ++reached.failed_over;
    if (r.torn_chain_failovers > 0) ++reached.torn_failed_over;
    if (exhausted) ++reached.exhausted;
    if (verified) ++reached.verified_rollbacks;
    if (exhausted && verified) ++reached.exhausted_then_verified;
  }
}

}  // namespace dckpt::test
