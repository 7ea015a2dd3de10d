#include "runtime/grid.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>

#include "chaos/chaos_api.hpp"

namespace {

using namespace dckpt::runtime;
using dckpt::chaos::ShadowConfig;
using dckpt::ckpt::Topology;

GridConfig small_grid(Topology topology = Topology::Pairs) {
  GridConfig config;
  config.grid_rows = 2;
  config.grid_cols = topology == Topology::Pairs ? 2 : 3;
  config.topology = topology;
  config.block_rows = 8;
  config.block_cols = 8;
  config.checkpoint_interval = 6;
  config.total_steps = 30;
  config.threads = 2;
  return config;
}

std::uint64_t reference_hash(const GridConfig& config) {
  GridCoordinator reference(config, std::make_unique<HeatKernel2D>());
  const auto report = reference.run();
  EXPECT_FALSE(report.fatal);
  return report.final_hash;
}

TEST(HeatKernel2DTest, RejectsUnstableCoefficient) {
  EXPECT_THROW(HeatKernel2D(0.0), std::invalid_argument);
  EXPECT_THROW(HeatKernel2D(0.3), std::invalid_argument);
}

TEST(HeatKernel2DTest, UniformFieldIsSteadyState) {
  HeatKernel2D kernel(0.2);
  std::vector<double> prev(16, 2.0), next(16);
  const std::vector<double> edge(4, 2.0);
  kernel.step(prev, next, 4, 4, edge, edge, edge, edge);
  for (double v : next) EXPECT_DOUBLE_EQ(v, 2.0);
}

TEST(HeatKernel2DTest, PointSourceSpreadsSymmetrically) {
  HeatKernel2D kernel(0.25);
  std::vector<double> prev(25, 0.0), next(25);
  prev[12] = 1.0;  // centre of a 5x5 block
  const std::vector<double> zero(5, 0.0);
  kernel.step(prev, next, 5, 5, zero, zero, zero, zero);
  EXPECT_DOUBLE_EQ(next[12], 0.0);  // c = 0.25 drains the peak entirely
  EXPECT_DOUBLE_EQ(next[7], 0.25);  // north neighbour
  EXPECT_DOUBLE_EQ(next[17], 0.25);
  EXPECT_DOUBLE_EQ(next[11], 0.25);
  EXPECT_DOUBLE_EQ(next[13], 0.25);
  // Mass conserved away from boundaries.
  EXPECT_NEAR(std::accumulate(next.begin(), next.end(), 0.0), 1.0, 1e-12);
}

TEST(HeatKernel2DTest, HaloCouplesNeighbourBlocks) {
  HeatKernel2D kernel(0.2);
  std::vector<double> prev(16, 0.0), hot(16), cold(16);
  std::vector<double> hot_north(4, 5.0), zero(4, 0.0);
  kernel.step(prev, hot, 4, 4, hot_north, zero, zero, zero);
  kernel.step(prev, cold, 4, 4, zero, zero, zero, zero);
  for (int c = 0; c < 4; ++c) EXPECT_GT(hot[c], cold[c]);
  for (int c = 0; c < 4; ++c) EXPECT_DOUBLE_EQ(hot[4 + c], cold[4 + c]);
}

TEST(HeatKernel2DTest, InitializationTilesTheGlobalField) {
  // A block's initial state depends only on global coordinates, so the
  // blocks of any layout tile one field: the 2x2 block at (2, 2) is the
  // lower-right corner of the 4x4 block at the origin.
  HeatKernel2D kernel(0.2);
  std::vector<double> whole(16), corner(4);
  kernel.initialize(0, 0, 4, 4, whole);
  kernel.initialize(2, 2, 2, 2, corner);
  EXPECT_EQ(corner[0], whole[2 * 4 + 2]);
  EXPECT_EQ(corner[1], whole[2 * 4 + 3]);
  EXPECT_EQ(corner[2], whole[3 * 4 + 2]);
  EXPECT_EQ(corner[3], whole[3 * 4 + 3]);
  EXPECT_NE(whole[0], whole[1]);  // the field is not uniform
  EXPECT_EQ(kernel.name(), "heat-diffusion-2d");
}

TEST(HeatKernel2DTest, RejectsMismatchedBlockAndHaloSizes) {
  HeatKernel2D kernel(0.2);
  std::vector<double> state(12);
  EXPECT_THROW(kernel.initialize(0, 0, 4, 4, state), std::invalid_argument);
  std::vector<double> prev(12, 0.0), next(12);
  const std::vector<double> row(4, 0.0), col(3, 0.0);  // 3 rows x 4 cols
  EXPECT_NO_THROW(kernel.step(prev, next, 3, 4, row, row, col, col));
  std::vector<double> short_next(11);
  EXPECT_THROW(kernel.step(prev, short_next, 3, 4, row, row, col, col),
               std::invalid_argument);
  EXPECT_THROW(kernel.step(prev, next, 3, 4, col, row, col, col),
               std::invalid_argument);  // north halo is a column's length
  EXPECT_THROW(kernel.step(prev, next, 3, 4, row, row, row, col),
               std::invalid_argument);  // west halo is a row's length
}

TEST(GridConfigTest, Validation) {
  auto config = small_grid();
  config.grid_rows = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = small_grid(Topology::Triples);
  config.grid_cols = 2;  // 4 workers, not divisible by 3
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = small_grid();
  config.block_cols = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(GridCoordinatorTest, FaultFreeDeterministic) {
  const auto config = small_grid();
  EXPECT_EQ(reference_hash(config), reference_hash(config));
}

TEST(GridCoordinatorTest, ResultIndependentOfThreadCount) {
  auto config = small_grid();
  config.threads = 1;
  const auto h1 = reference_hash(config);
  config.threads = 4;
  EXPECT_EQ(reference_hash(config), h1);

  // dcp on, and a loss that replays base + chain (see the 1-D test).
  auto dcp = small_grid();
  dcp.dcp_stack_size = 4;
  dcp.dcp_block_size = 128;  // four blocks per 8x8 block of doubles
  // Full commit at 6, deltas at 12 and 18: the loss at 21 replays 2 layers.
  const FailureInjection failures[] = {{21, 2}};
  dcp.threads = 1;
  const auto one =
      GridCoordinator(dcp, std::make_unique<HeatKernel2D>()).run(failures);
  dcp.threads = 4;
  const auto four =
      GridCoordinator(dcp, std::make_unique<HeatKernel2D>()).run(failures);
  ASSERT_FALSE(one.fatal) << one.fatal_reason;
  EXPECT_GT(one.chain_replays, 0u);
  EXPECT_EQ(one.final_hash, reference_hash(dcp));
  EXPECT_EQ(one.final_hash, four.final_hash);
  EXPECT_TRUE(one == four) << "RunReport differs between 1 and 4 threads";
}

TEST(GridCoordinatorTest, AnyLayoutMatchesTheWholeDomainStencil) {
  // One 12x12 field cut into blocks every way below must step exactly like
  // the undivided field with zero halos: block origins, halo edges and the
  // blank restarts a rollback to the initial state runs all line up. Each
  // layout runs fault-free and with one loss before and one after the
  // first commit.
  constexpr std::size_t kSide = 12;
  const GridConfig base = small_grid();  // commits every 6 steps
  const HeatKernel2D kernel;
  std::vector<double> whole(kSide * kSide), next(kSide * kSide);
  kernel.initialize(0, 0, kSide, kSide, whole);
  const std::vector<double> zero(kSide, 0.0);
  for (std::uint64_t step = 0; step < base.total_steps; ++step) {
    kernel.step(whole, next, kSide, kSide, zero, zero, zero, zero);
    whole.swap(next);
  }

  const auto check_layout = [&](std::size_t rows, std::size_t cols,
                                Topology topology) {
    GridConfig config = base;
    config.grid_rows = rows;
    config.grid_cols = cols;
    config.topology = topology;
    config.block_rows = kSide / rows;
    config.block_cols = kSide / cols;
    const FailureInjection losses[] = {{4, config.nodes() - 1}, {9, 0}};
    for (const std::span<const FailureInjection> failures :
         {std::span<const FailureInjection>(),
          std::span<const FailureInjection>(losses)}) {
      SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols) +
                   " workers, " + std::to_string(failures.size()) + " losses");
      GridCoordinator coordinator(config, std::make_unique<HeatKernel2D>());
      const auto report = coordinator.run(failures);
      ASSERT_FALSE(report.fatal) << report.fatal_reason;
      ASSERT_EQ(report.failures, failures.size());
      // Block (gr, gc)'s cell (r, c) is global cell (gr*br + r, gc*bc + c).
      const std::vector<double> blocks = coordinator.global_state();
      const std::size_t br = config.block_rows, bc = config.block_cols;
      std::vector<double> field(kSide * kSide);
      for (std::size_t node = 0; node < config.nodes(); ++node) {
        const std::size_t gr = node / cols, gc = node % cols;
        for (std::size_t r = 0; r < br; ++r) {
          for (std::size_t c = 0; c < bc; ++c) {
            field[(gr * br + r) * kSide + gc * bc + c] =
                blocks[(node * br + r) * bc + c];
          }
        }
      }
      const std::size_t bytes = whole.size() * sizeof(double);
      EXPECT_EQ(std::memcmp(field.data(), whole.data(), bytes), 0);
    }
  };
  check_layout(2, 1, Topology::Pairs);
  check_layout(1, 2, Topology::Pairs);
  check_layout(2, 2, Topology::Pairs);
  check_layout(3, 1, Topology::Triples);
  check_layout(3, 3, Topology::Triples);
  check_layout(2, 3, Topology::Triples);
}

TEST(GridCoordinatorTest, EnergyDiffusesGlobally) {
  const auto config = small_grid();
  GridCoordinator coordinator(config, std::make_unique<HeatKernel2D>());
  const auto initial = coordinator.global_state();
  coordinator.run();
  const auto final_state = coordinator.global_state();
  auto energy = [](const std::vector<double>& u) {
    double e = 0.0;
    for (double v : u) e += v * v;
    return e;
  };
  EXPECT_LT(energy(final_state), energy(initial));
}

TEST(GridCoordinatorTest, SingleFailureMaskedPairs) {
  const auto config = small_grid();
  const auto expected = reference_hash(config);
  GridCoordinator coordinator(config, std::make_unique<HeatKernel2D>());
  const FailureInjection failures[] = {{15, 2}};
  const auto report = coordinator.run(failures);
  ASSERT_FALSE(report.fatal) << report.fatal_reason;
  EXPECT_EQ(report.failures, 1u);
  EXPECT_EQ(report.replayed_steps, 3u);  // 15 -> checkpoint at 12
  EXPECT_EQ(report.final_hash, expected);
}

TEST(GridCoordinatorTest, TriplesSurviveSequentialPair) {
  const auto config = small_grid(Topology::Triples);
  const auto expected = reference_hash(config);
  GridCoordinator coordinator(config, std::make_unique<HeatKernel2D>());
  const FailureInjection failures[] = {{10, 0}, {11, 1}};
  const auto report = coordinator.run(failures);
  ASSERT_FALSE(report.fatal) << report.fatal_reason;
  EXPECT_EQ(report.final_hash, expected);
}

TEST(GridCoordinatorTest, PairWipeoutIsFatal) {
  const auto config = small_grid();
  GridCoordinator coordinator(config, std::make_unique<HeatKernel2D>());
  const FailureInjection failures[] = {{10, 0}, {10, 1}};
  const auto report = coordinator.run(failures);
  EXPECT_TRUE(report.fatal);
}

TEST(GridCoordinatorTest, FailureBeforeFirstCheckpoint) {
  const auto config = small_grid();
  const auto expected = reference_hash(config);
  GridCoordinator coordinator(config, std::make_unique<HeatKernel2D>());
  const FailureInjection failures[] = {{3, 1}};
  const auto report = coordinator.run(failures);
  ASSERT_FALSE(report.fatal);
  EXPECT_EQ(report.replayed_steps, 3u);
  EXPECT_EQ(report.final_hash, expected);
}

TEST(GridCoordinatorTest, FinalHashIsTheStateHashOfTheGlobalState) {
  // run() chains the hash block by block; global_state() concatenates the
  // blocks in the same order, so the two hashes must agree.
  GridCoordinator coordinator(small_grid(), std::make_unique<HeatKernel2D>());
  const FailureInjection failures[] = {{10, 3}};
  const auto report = coordinator.run(failures);
  ASSERT_FALSE(report.fatal) << report.fatal_reason;
  EXPECT_EQ(report.final_hash, state_hash(coordinator.global_state()));
}

TEST(GridCoordinatorTest, GlobalStateHasExpectedSize) {
  const auto config = small_grid();
  GridCoordinator coordinator(config, std::make_unique<HeatKernel2D>());
  EXPECT_EQ(coordinator.global_state().size(),
            config.nodes() * config.block_rows * config.block_cols);
}

TEST(GridCoordinatorTest, NullKernelRejected) {
  EXPECT_THROW(GridCoordinator(small_grid(), nullptr),
               std::invalid_argument);
}

TEST(GridCoordinatorTest, InjectionValidationMatchesChainRuntime) {
  // Satellite parity bugfix: the grid must reject out-of-range injections
  // exactly like the 1-D Coordinator instead of silently ignoring them.
  const auto config = small_grid();
  RuntimeConfig chain;
  chain.nodes = config.nodes();
  chain.total_steps = config.total_steps;
  chain.checkpoint_interval = config.checkpoint_interval;

  const FailureInjection bad_node[] = {{10, config.nodes()}};
  const FailureInjection bad_step[] = {{config.total_steps, 0}};
  const FailureInjection late_node[] = {{config.total_steps, 99}};
  for (std::span<const FailureInjection> bad :
       {std::span<const FailureInjection>(bad_node),
        std::span<const FailureInjection>(bad_step),
        std::span<const FailureInjection>(late_node)}) {
    GridCoordinator grid(config, std::make_unique<HeatKernel2D>());
    Coordinator coordinator(chain, std::make_unique<HeatKernel>());
    EXPECT_THROW(grid.run(bad), std::invalid_argument);
    EXPECT_THROW(coordinator.run(bad), std::invalid_argument);
  }
}

TEST(GridCoordinatorTest, RereplicationDelayWidensRiskWindow) {
  // Satellite bugfix: GridConfig::rereplication_delay_steps must be
  // honored. The same buddy double hit is masked when the refill lands
  // before the second failure and fatal while the window is still open.
  auto config = small_grid();
  const FailureInjection double_hit[] = {{13, 2}, {15, 3}};  // rack (2,3)
  config.rereplication_delay_steps = 1;  // refill after step 13 replays
  {
    const auto expected = reference_hash(config);
    GridCoordinator coordinator(config, std::make_unique<HeatKernel2D>());
    const auto report = coordinator.run(double_hit);
    ASSERT_FALSE(report.fatal) << report.fatal_reason;
    EXPECT_EQ(report.final_hash, expected);
    // Each failure opens its own one-step window and refill.
    EXPECT_EQ(report.risk_steps, 2u);
    EXPECT_EQ(report.rereplications, 2u);
  }
  config.rereplication_delay_steps = 6;  // still pending at step 15
  {
    GridCoordinator coordinator(config, std::make_unique<HeatKernel2D>());
    const auto report = coordinator.run(double_hit);
    EXPECT_TRUE(report.fatal);
    EXPECT_NE(report.fatal_reason.find("no surviving replica"),
              std::string::npos);
  }
}

TEST(GridCoordinatorTest, CommitClosesRiskWindowAndOracleAgrees) {
  // A committed checkpoint re-creates every replica, so a refill pending
  // across a commit is subsumed -- and the shadow oracle predicts the
  // grid's accounting counter for counter.
  auto config = small_grid();
  config.rereplication_delay_steps = 10;  // longer than interval - replay
  const FailureInjection failures[] = {{13, 2}, {20, 3}};
  GridCoordinator coordinator(config, std::make_unique<HeatKernel2D>());
  const auto report = coordinator.run(failures);
  ASSERT_FALSE(report.fatal) << report.fatal_reason;
  // Window opens after the rollback to 12, ticks through steps 13..18,
  // closes at the commit at 18 -- so the buddy hit at 20 is masked again
  // and the refill clock never fires.
  EXPECT_EQ(report.rereplications, 0u);
  const auto predicted =
      dckpt::chaos::predict_outcome(ShadowConfig(config), failures);
  EXPECT_FALSE(predicted.fatal);
  EXPECT_EQ(report.risk_steps, predicted.risk_steps);
  EXPECT_EQ(report.steps_executed, predicted.steps_executed);
  EXPECT_EQ(report.replayed_steps, predicted.replayed_steps);
  EXPECT_EQ(report.checkpoints, predicted.checkpoints);
  EXPECT_EQ(report.rollbacks, predicted.rollbacks);
  EXPECT_EQ(report.recoveries, predicted.recoveries);
  EXPECT_EQ(report.rereplications, predicted.rereplications);
}

TEST(GridCoordinatorTest, AlarmProactiveCheckpointMasksLoss) {
  // A predicted failure triggers a proactive commit one step ahead, so the
  // kill replays a single step instead of the whole interval -- and the
  // shadow oracle mirrors the alarm accounting exactly.
  const auto config = small_grid();
  const auto expected = reference_hash(config);
  GridCoordinator coordinator(config, std::make_unique<HeatKernel2D>());
  const FailureInjection failures[] = {
      {14, 3, InjectionKind::Alarm, 0, 1}, {15, 3}};
  const auto report = coordinator.run(failures);
  ASSERT_FALSE(report.fatal) << report.fatal_reason;
  EXPECT_EQ(report.alarms_raised, 1u);
  EXPECT_EQ(report.proactive_ckpts, 1u);
  EXPECT_EQ(report.true_predictions, 1u);
  EXPECT_EQ(report.missed_failures, 0u);
  EXPECT_EQ(report.replayed_steps, 1u);  // 15 -> proactive commit at 14
  EXPECT_EQ(report.final_hash, expected);
  const auto predicted =
      dckpt::chaos::predict_outcome(ShadowConfig(config), failures);
  EXPECT_EQ(report.alarms_raised, predicted.alarms_raised);
  EXPECT_EQ(report.proactive_ckpts, predicted.proactive_ckpts);
  EXPECT_EQ(report.true_predictions, predicted.true_predictions);
  EXPECT_EQ(report.missed_failures, predicted.missed_failures);
  EXPECT_EQ(report.checkpoints, predicted.checkpoints);
  EXPECT_EQ(report.replayed_steps, predicted.replayed_steps);
  EXPECT_EQ(report.rollbacks, predicted.rollbacks);
}

TEST(GridChaosSmoke, ScriptedGridCampaignNeverViolates) {
  // Fast-lane smoke for the generalized chaos engine: every scripted grid
  // danger family plus a few random draws, zero violations.
  dckpt::chaos::ChaosCampaignConfig campaign;
  campaign.grid = small_grid();
  campaign.random_runs = 10;
  campaign.threads = 2;
  const auto summary = dckpt::chaos::run_campaign(campaign);
  EXPECT_EQ(summary.violated, 0u);
  EXPECT_EQ(summary.target, "grid");
  for (const auto& run : summary.runs) {
    EXPECT_NE(run.outcome, dckpt::chaos::ChaosOutcome::Violated)
        << run.schedule.name << ": " << run.detail << "\n  " << run.repro;
    EXPECT_NE(run.repro.find("--grid=2x2"), std::string::npos) << run.repro;
  }
}

}  // namespace
