// Chaos engine vs the 2-D grid runtime: scripted geometry-aware danger
// families, campaign-scale randomized sweeps, the shadow-oracle
// differential property (with seeded shrinking), the mutation check that
// proves the classifier flags a broken protocol shape, and the grid
// extensions of the repro / JSONL export contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "chaos/chaos_api.hpp"
#include "chaos_thread_parity.hpp"
#include "proptest.hpp"

namespace {

using namespace dckpt;
using dckpt::ckpt::Topology;

runtime::GridConfig small_grid(Topology topology) {
  runtime::GridConfig config;
  config.topology = topology;
  config.grid_rows = topology == Topology::Pairs ? 4 : 3;
  config.grid_cols = topology == Topology::Pairs ? 4 : 3;
  config.block_rows = 6;
  config.block_cols = 6;
  config.checkpoint_interval = 8;
  config.total_steps = 64;
  // Wider than the replay distance (1 step at the scripted offset), so the
  // scripted risk-window families actually land inside the open window.
  config.rereplication_delay_steps = 6;
  config.threads = 1;
  return config;
}

chaos::ChaosCampaignConfig grid_campaign(Topology topology) {
  chaos::ChaosCampaignConfig config;
  config.grid = small_grid(topology);
  config.random_runs = 0;
  config.threads = 2;
  return config;
}

std::map<std::string, chaos::ChaosRunResult> run_scripted(
    const chaos::ChaosCampaignConfig& config) {
  const std::uint64_t reference = chaos::reference_run(config).final_hash;
  std::map<std::string, chaos::ChaosRunResult> by_name;
  for (const auto& schedule :
       chaos::scripted_grid_schedules(*config.grid)) {
    by_name[schedule.name] = chaos::run_one(config, schedule, reference);
  }
  return by_name;
}

// ------------------------------------------- scripted danger families

TEST(GridChaosScripted, FamiliesCoverTheGridGeometry) {
  const auto schedules =
      chaos::scripted_grid_schedules(small_grid(Topology::Pairs));
  const auto has = [&](const std::string& name) {
    return std::any_of(schedules.begin(), schedules.end(),
                       [&](const chaos::ChaosSchedule& s) {
                         return s.name == name;
                       });
  };
  // The generic protocol families ride along...
  EXPECT_TRUE(has("single-mid-run"));
  EXPECT_TRUE(has("group-wipe"));
  // ...plus the geometry-aware ones.
  EXPECT_TRUE(has("rack-wipe"));
  EXPECT_TRUE(has("grid-row-simultaneous"));
  EXPECT_TRUE(has("grid-column-simultaneous"));
  EXPECT_TRUE(has("grid-column-staggered"));
  EXPECT_TRUE(has("halo-neighbours-vertical"));
  EXPECT_TRUE(has("row-span-two-racks"));
  EXPECT_TRUE(has("rack-risk-window"));
  // 4 columns divide evenly into 2-wide racks: no straddling rack exists.
  EXPECT_FALSE(has("rack-straddles-rows"));
  // A 3-wide triples grid has no rack fully inside a row *boundary* --
  // racks straddle rows whenever the group size does not divide the cols.
  const auto triples =
      chaos::scripted_grid_schedules(small_grid(Topology::Triples));
  EXPECT_FALSE(std::any_of(triples.begin(), triples.end(),
                           [](const chaos::ChaosSchedule& s) {
                             return s.name == "rack-straddles-rows";
                           }));
}

TEST(GridChaosScripted, StraddlingRackFamilyAppearsWhenGeometryAllows) {
  auto config = small_grid(Topology::Pairs);
  config.grid_rows = 2;
  config.grid_cols = 3;  // racks (2,3) straddle the row boundary
  const auto schedules = chaos::scripted_grid_schedules(config);
  const auto it = std::find_if(schedules.begin(), schedules.end(),
                               [](const chaos::ChaosSchedule& s) {
                                 return s.name == "rack-straddles-rows";
                               });
  ASSERT_NE(it, schedules.end());
  // Both victims belong to one rack but to different grid rows.
  ASSERT_EQ(it->failures.size(), 2u);
  EXPECT_EQ(it->failures[0].node / 2, it->failures[1].node / 2);
  EXPECT_NE(it->failures[0].node / config.grid_cols,
            it->failures[1].node / config.grid_cols);
}

TEST(GridChaosScripted, PairsOutcomesMatchTheRackModel) {
  const auto runs = run_scripted(grid_campaign(Topology::Pairs));
  for (const auto& [name, run] : runs) {
    EXPECT_NE(run.outcome, chaos::ChaosOutcome::Violated)
        << name << ": " << run.detail << "\n  " << run.repro;
  }
  const auto outcome = [&](const std::string& name) {
    return runs.at(name).outcome;
  };
  // Losing a whole rack destroys every replica of its members, wherever
  // the rack sits in the domain.
  EXPECT_EQ(outcome("rack-wipe"), chaos::ChaosOutcome::FatalDetected);
  // A 4-wide row of 2-wide racks contains two full racks: fatal.
  EXPECT_EQ(outcome("grid-row-simultaneous"),
            chaos::ChaosOutcome::FatalDetected);
  // A column's victims are a full row length apart -- one per rack, so the
  // coordinated rollback masks all of them at once.
  EXPECT_EQ(outcome("grid-column-simultaneous"),
            chaos::ChaosOutcome::Survived);
  // Staggered column hits roll back while earlier victims' refills are
  // still pending, but each rack only ever loses one member: survivable.
  EXPECT_EQ(outcome("grid-column-staggered"),
            chaos::ChaosOutcome::Survived);
  EXPECT_EQ(outcome("halo-neighbours-vertical"),
            chaos::ChaosOutcome::Survived);
  EXPECT_EQ(outcome("row-span-two-racks"), chaos::ChaosOutcome::Survived);
  // Rack-mate lost while the first victim's refill is still pending.
  EXPECT_EQ(outcome("rack-risk-window"),
            chaos::ChaosOutcome::FatalDetected);
  // Pairs keep one remote replica: corrupting the centre rack's preferred
  // copy before the kill leaves nothing clean to restore from.
  EXPECT_EQ(outcome("rack-corrupt-preferred"),
            chaos::ChaosOutcome::FatalDetected);
  // The corruption families from the generic scripted set ride along on
  // the grid runtime too.
  EXPECT_EQ(outcome("torn-refill-in-risk-window"),
            chaos::ChaosOutcome::Survived);
  EXPECT_EQ(outcome("refill-retries-exhausted"),
            chaos::ChaosOutcome::Survived);
}

TEST(GridChaosScripted, TriplesOutcomesMatchTheRackModel) {
  const auto runs = run_scripted(grid_campaign(Topology::Triples));
  for (const auto& [name, run] : runs) {
    EXPECT_NE(run.outcome, chaos::ChaosOutcome::Violated)
        << name << ": " << run.detail << "\n  " << run.repro;
  }
  const auto outcome = [&](const std::string& name) {
    return runs.at(name).outcome;
  };
  EXPECT_EQ(outcome("rack-wipe"), chaos::ChaosOutcome::FatalDetected);
  // A 3-wide row of a 3x3 triples grid *is* one rack: fatal.
  EXPECT_EQ(outcome("grid-row-simultaneous"),
            chaos::ChaosOutcome::FatalDetected);
  // One member per rack: triples mask simultaneous cross-rack losses.
  EXPECT_EQ(outcome("grid-column-simultaneous"),
            chaos::ChaosOutcome::Survived);
  // The secondary replica absorbs the corrupted preferred copy.
  EXPECT_EQ(outcome("rack-corrupt-preferred"),
            chaos::ChaosOutcome::Survived);
  EXPECT_EQ(runs.at("rack-corrupt-preferred").report.failovers, 1u);
}

TEST(GridChaosScripted, RackRiskWindowIsMaskedOnceTheWindowCloses) {
  // The rack-risk-window plan is fatal only because of the open refill
  // window: with an instant refill the same double hit must be masked.
  auto config = grid_campaign(Topology::Pairs);
  config.grid->rereplication_delay_steps = 0;
  const auto runs = run_scripted(config);
  EXPECT_EQ(runs.at("rack-risk-window").outcome,
            chaos::ChaosOutcome::Survived);
  // Rack wipes stay fatal regardless of the window.
  EXPECT_EQ(runs.at("rack-wipe").outcome,
            chaos::ChaosOutcome::FatalDetected);
}

// --------------------------------------------------- randomized campaigns

TEST(GridChaosCampaign, TwoHundredRandomRunsPairsNeverViolate) {
  auto config = grid_campaign(Topology::Pairs);
  config.random_runs = 200;
  config.campaign_seed = 20260805;
  const auto summary = chaos::run_campaign(config);
  EXPECT_EQ(summary.violated, 0u);
  for (const auto& run : summary.runs) {
    EXPECT_NE(run.outcome, chaos::ChaosOutcome::Violated)
        << run.schedule.name << " seed " << run.schedule.seed << ": "
        << run.detail << "\n  " << run.repro;
    EXPECT_EQ(run.target, "grid");
  }
  EXPECT_GT(summary.survived, 0u);
  EXPECT_GT(summary.fatal_detected, 0u);
  EXPECT_EQ(summary.survived + summary.fatal_detected, summary.runs.size());
}

TEST(GridChaosCampaign, TwoHundredRandomRunsTriplesNeverViolate) {
  auto config = grid_campaign(Topology::Triples);
  config.random_runs = 200;
  config.campaign_seed = 20260805;
  const auto summary = chaos::run_campaign(config);
  EXPECT_EQ(summary.violated, 0u);
  EXPECT_GT(summary.survived, 0u);
  EXPECT_GT(summary.fatal_detected, 0u);
}

// ------------------------------------------- shadow-vs-runtime property

struct GridDifferentialCase {
  chaos::ChaosCampaignConfig config;
  chaos::ChaosSchedule schedule;
};

TEST(GridChaosProperty, ShadowOracleMatchesGridRuntimeOnRandomShapes) {
  // Differential: random grid geometries, protocol shapes, and adversarial
  // schedules through the real GridCoordinator, classified against the
  // generalized oracle. Any Violated outcome is a parity bug; shrinking
  // drops failures one at a time to report a minimal counterexample.
  proptest::ForallConfig forall_config;
  forall_config.seed = 0x9f1d;
  forall_config.iterations = 80;
  proptest::forall<GridDifferentialCase>(
      forall_config,
      [](proptest::Gen& gen) {
        GridDifferentialCase c;
        runtime::GridConfig grid;
        const bool pairs = gen.boolean();
        grid.topology = pairs ? Topology::Pairs : Topology::Triples;
        // Keep nodes a multiple of the group size by construction.
        grid.grid_rows = gen.integer(1, 4);
        grid.grid_cols = pairs ? 2 * gen.integer(1, 2) : 3;
        grid.block_rows = gen.integer(2, 6);
        grid.block_cols = gen.integer(2, 6);
        grid.checkpoint_interval = gen.integer(3, 12);
        grid.total_steps = grid.checkpoint_interval * gen.integer(2, 5);
        grid.rereplication_delay_steps = gen.integer(0, 8);
        grid.threads = 1;
        c.config.grid = grid;
        c.schedule = chaos::random_schedule(chaos::ShadowConfig(grid),
                                            gen.rng()(), 5);
        return c;
      },
      [](const GridDifferentialCase& c) -> std::optional<std::string> {
        const std::uint64_t reference =
            chaos::reference_run(c.config).final_hash;
        const auto run = chaos::run_one(c.config, c.schedule, reference);
        if (run.outcome == chaos::ChaosOutcome::Violated) {
          return run.detail + " [" + run.repro + "]";
        }
        return std::nullopt;
      },
      [](const GridDifferentialCase& c) {
        std::vector<GridDifferentialCase> candidates;
        for (std::size_t drop = 0; drop < c.schedule.failures.size();
             ++drop) {
          if (c.schedule.failures.size() == 1) break;
          GridDifferentialCase smaller = c;
          smaller.schedule.failures.erase(
              smaller.schedule.failures.begin() +
              static_cast<std::ptrdiff_t>(drop));
          candidates.push_back(std::move(smaller));
        }
        return candidates;
      },
      [](const GridDifferentialCase& c) {
        return chaos::repro_command(c.config, c.schedule);
      });
}

// ------------------------------------------------------- mutation check

TEST(GridChaosMutation, BrokenCommitOrderingIsClassifiedViolated) {
  // Acceptance criterion: a deliberately broken grid commit ordering must
  // be caught, not silently survived. classify_run() is the seam -- feed
  // the classifier a prediction from a protocol shape whose commits land
  // at the wrong steps (the oracle's view of a runtime that commits on a
  // different cadence) and the counter comparison must flag it.
  auto config = grid_campaign(Topology::Pairs);
  const std::uint64_t reference = chaos::reference_run(config).final_hash;
  chaos::ChaosSchedule schedule{"mutation-probe", {{13, 2}}, 0};

  chaos::ShadowConfig mutated = config.shadow();
  mutated.checkpoint_interval += 1;  // broken ordering: commits drift
  const auto wrong_prediction =
      chaos::predict_outcome(mutated, schedule.failures);
  const auto run = chaos::classify_run(config, schedule, wrong_prediction,
                                       reference);
  EXPECT_EQ(run.outcome, chaos::ChaosOutcome::Violated);
  EXPECT_NE(run.detail.find("diverges from the oracle"), std::string::npos)
      << run.detail;
  EXPECT_NE(run.repro.find("--grid=4x4"), std::string::npos) << run.repro;

  // Control: the honest prediction classifies the same run as survivable.
  const auto honest = chaos::run_one(config, schedule, reference);
  EXPECT_EQ(honest.outcome, chaos::ChaosOutcome::Survived) << honest.detail;
}

// ------------------------------------------------------- reproducibility

TEST(GridChaosRepro, CommandCarriesGridGeometryAndReplays) {
  auto config = grid_campaign(Topology::Pairs);
  config.random_runs = 25;
  const auto summary = chaos::run_campaign(config);
  for (const auto& run : summary.runs) {
    EXPECT_NE(run.repro.find("dckpt chaos"), std::string::npos);
    EXPECT_NE(run.repro.find("--grid=4x4"), std::string::npos) << run.repro;
    EXPECT_NE(run.repro.find("--block=6x6"), std::string::npos) << run.repro;
    // Chain-only knobs must not leak into grid repro lines.
    EXPECT_EQ(run.repro.find("--cells="), std::string::npos) << run.repro;
    EXPECT_EQ(run.repro.find("--staging="), std::string::npos) << run.repro;
    EXPECT_NE(run.repro.find("--schedule=" + run.schedule.spec()),
              std::string::npos);
    auto replay = chaos::ChaosSchedule::parse(run.schedule.spec());
    const auto again =
        chaos::run_one(config, replay, summary.reference_hash);
    EXPECT_EQ(again.outcome, run.outcome);
    EXPECT_EQ(again.report.final_hash, run.report.final_hash);
    EXPECT_EQ(again.report.risk_steps, run.report.risk_steps);
  }
}

// ------------------------------------------------------------- export

TEST(GridChaosExport, RecordsCarryAppendedTargetFields) {
  auto config = grid_campaign(Topology::Pairs);
  config.random_runs = 5;
  const auto summary = chaos::run_campaign(config);
  std::ostringstream out;
  chaos::write_campaign_jsonl(out, summary);
  const auto lines = util::parse_jsonl(out.str());
  ASSERT_EQ(lines.size(), summary.runs.size() + 1);
  EXPECT_EQ(lines[0].at("record").as_string(), "chaos_campaign");
  EXPECT_EQ(lines[0].at("target").as_string(), "grid");
  EXPECT_EQ(lines[0].at("grid").as_string(), "4x4");
  EXPECT_EQ(lines[0].at("block").as_string(), "6x6");
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i].at("record").as_string(), "chaos_run");
    EXPECT_EQ(lines[i].at("target").as_string(), "grid");
  }
}

TEST(GridChaosExport, ChainRecordsKeepTheChainTargetId) {
  // Append-only schema: chain campaigns gain the "target" key too (stable
  // id "chain") and never the grid geometry keys.
  chaos::ChaosCampaignConfig config;
  config.runtime.nodes = 4;
  config.runtime.total_steps = 24;
  config.runtime.checkpoint_interval = 6;
  config.runtime.cells_per_node = 16;
  config.random_runs = 2;
  config.threads = 1;
  const auto summary = chaos::run_campaign(config);
  std::ostringstream out;
  chaos::write_campaign_jsonl(out, summary);
  const auto lines = util::parse_jsonl(out.str());
  EXPECT_EQ(lines[0].at("target").as_string(), "chain");
  EXPECT_FALSE(lines[0].contains("grid"));
  EXPECT_FALSE(lines[0].contains("block"));
  EXPECT_EQ(lines[1].at("target").as_string(), "chain");
}

// ------------------------------------------------------ silent errors

TEST(GridChaosSdc, LatentStrikeMatchesTheChainLadderMath) {
  // Same geometry-free ladder arithmetic as the chain test: interval 12,
  // k = 4, strike at 13 -> verification at 48 walks {36, 24, 12}, rollback
  // depth 2, replay 36 steps. The grid commits immediately, so commit steps
  // line up with the chain's.
  auto config = grid_campaign(Topology::Pairs);
  config.grid->checkpoint_interval = 12;
  config.grid->total_steps = 96;
  config.grid->verify_every = 4;
  config.grid->keep_last = 3;
  const auto schedule = chaos::ChaosSchedule::parse("13:sdc:0");
  const auto run = chaos::run_one(config, schedule,
                                  chaos::reference_run(config).final_hash);
  EXPECT_EQ(run.outcome, chaos::ChaosOutcome::Survived) << run.detail;
  EXPECT_EQ(run.report.sdc_injected, 1u);
  EXPECT_EQ(run.report.sdc_detected, 1u);
  EXPECT_EQ(run.report.rollback_depth, 2u);
  EXPECT_EQ(run.report.replayed_steps, 36u);
  // Shallow retention flips the same schedule to detected-fatal.
  config.grid->keep_last = 2;
  const auto fatal = chaos::run_one(config, schedule,
                                    chaos::reference_run(config).final_hash);
  EXPECT_EQ(fatal.outcome, chaos::ChaosOutcome::FatalDetected)
      << fatal.detail;
}

TEST(GridChaosSdc, VerifiedRollbackReadmitsLostNodesAndRefillsAtOnce) {
  // Both buddies of node 0's committed image are corrupt when node 0 dies
  // at step 9, so it blank-restarts (fatal-detected). The verification at
  // step 12 finds the silent error of step 10 and, with node 0's newest set
  // unrestorable, drops one rung to the set of step 4: node 0 rejoins after
  // 4 degraded steps, and its emptied store is refilled inside the
  // rollback (delay 0). The schedule of the grid run in
  // scripts/chaos_smoke_campaigns.sh.
  auto config = grid_campaign(Topology::Triples);
  config.grid->grid_rows = 2;
  config.grid->grid_cols = 3;
  config.grid->checkpoint_interval = 4;
  config.grid->total_steps = 40;
  config.grid->rereplication_delay_steps = 0;
  config.grid->verify_every = 1;
  config.grid->keep_last = 2;
  const auto run = chaos::run_one(
      config,
      chaos::ChaosSchedule::parse(
          "9:corrupt:1:0,9:corrupt:2:0,9:0,10:sdc:4"),
      chaos::reference_run(config).final_hash);
  EXPECT_EQ(run.outcome, chaos::ChaosOutcome::FatalDetected) << run.detail;
  EXPECT_EQ(run.report.fatal_node, 0u);
  EXPECT_EQ(run.report.sdc_detected, 1u);
  EXPECT_EQ(run.report.rollback_depth, 1u);
  EXPECT_EQ(run.report.degraded_steps, 4u);
  EXPECT_EQ(run.report.rereplications, 2u);
}

TEST(GridChaosSdc, RandomizedSdcGridCampaignNeverViolates) {
  auto config = grid_campaign(Topology::Triples);
  config.grid->verify_every = 2;
  config.grid->keep_last = 3;
  config.random_runs = 60;
  config.campaign_seed = 20260809;
  const auto summary = chaos::run_campaign(config);
  EXPECT_EQ(summary.violated, 0u);
  for (const auto& run : summary.runs) {
    EXPECT_NE(run.outcome, chaos::ChaosOutcome::Violated)
        << run.schedule.name << " seed " << run.schedule.seed << ": "
        << run.detail << "\n  " << run.repro;
  }
}

// ------------------------------------- recovery at any thread count
//
// The grid dcp smoke config and the grid sdc smoke config (verify_every 4,
// keep-last 3) at 1, 2 and 4 stepping threads (chaos_thread_parity.hpp).

void expect_grid_recovery_thread_invariant(Topology topology) {
  test::RecoveryPaths reached;
  auto dcp = grid_campaign(topology);
  dcp.grid->dcp_stack_size = 3;
  test::expect_thread_count_invariant(dcp, 20260812, reached);
  auto sdc = grid_campaign(topology);
  sdc.grid->verify_every = 4;
  sdc.grid->keep_last = 3;
  // Node 0 is lost at step 26 (every copy of its set of step 24 corrupt)
  // and still lost at the verification of step 32, which drops that set.
  const std::string lost_node_then_sdc =
      topology == Topology::Pairs
          ? "26:corrupt:1:0,26:0,27:sdc:2"
          : "26:corrupt:1:0,26:corrupt:2:0,26:0,27:sdc:4";
  test::expect_thread_count_invariant(sdc, 20260809, reached,
                                      {lost_node_then_sdc});
  EXPECT_GT(reached.failed_over, 0u);
  EXPECT_GT(reached.torn_failed_over, 0u);
  EXPECT_GT(reached.exhausted, 0u);
  EXPECT_GT(reached.verified_rollbacks, 0u);
  EXPECT_GT(reached.exhausted_then_verified, 0u);
}

TEST(GridChaosThreadCount, PairsRecoveryMatchesAtOneTwoAndFourThreads) {
  expect_grid_recovery_thread_invariant(Topology::Pairs);
}

TEST(GridChaosThreadCount, TriplesRecoveryMatchesAtOneTwoAndFourThreads) {
  expect_grid_recovery_thread_invariant(Topology::Triples);
}

}  // namespace
