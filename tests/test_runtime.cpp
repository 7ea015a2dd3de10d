// End-to-end tests of the fault-tolerant runtime: injected failures must be
// fully masked -- the final application state is bit-identical to a
// failure-free execution.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "runtime/runtime_api.hpp"

namespace {

using namespace dckpt::runtime;
using dckpt::ckpt::Topology;

RuntimeConfig small_config(Topology topology) {
  RuntimeConfig config;
  config.nodes = topology == Topology::Pairs ? 4 : 6;
  config.topology = topology;
  config.cells_per_node = 128;
  config.checkpoint_interval = 8;
  config.total_steps = 40;
  config.threads = 2;
  return config;
}

std::uint64_t reference_hash(const RuntimeConfig& config) {
  Coordinator reference(config, std::make_unique<HeatKernel>());
  const auto report = reference.run();
  EXPECT_FALSE(report.fatal);
  return report.final_hash;
}

TEST(RuntimeTest, FaultFreeRunIsDeterministic) {
  const auto config = small_config(Topology::Pairs);
  EXPECT_EQ(reference_hash(config), reference_hash(config));
}

TEST(RuntimeTest, FaultFreeReportAccounting) {
  const auto config = small_config(Topology::Pairs);
  Coordinator coordinator(config, std::make_unique<HeatKernel>());
  const auto report = coordinator.run();
  EXPECT_EQ(report.steps_executed, 40u);
  EXPECT_EQ(report.replayed_steps, 0u);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(report.rollbacks, 0u);
  // Checkpoints at steps 8,16,24,32 (not at 40 = completion).
  EXPECT_EQ(report.checkpoints, 4u);
  // Pairs replicate one image per node per checkpoint.
  EXPECT_EQ(report.bytes_replicated,
            4u * config.nodes * config.cells_per_node * sizeof(double));
}

TEST(RuntimeTest, SingleFailureIsMaskedPairs) {
  const auto config = small_config(Topology::Pairs);
  const auto expected = reference_hash(config);
  Coordinator coordinator(config, std::make_unique<HeatKernel>());
  const FailureInjection failures[] = {{21, 2}};
  const auto report = coordinator.run(failures);
  ASSERT_FALSE(report.fatal) << report.fatal_reason;
  EXPECT_EQ(report.failures, 1u);
  EXPECT_EQ(report.rollbacks, 1u);
  // Rolled back from step 21 to the step-16 checkpoint.
  EXPECT_EQ(report.replayed_steps, 5u);
  EXPECT_EQ(report.final_hash, expected);
}

TEST(RuntimeTest, SingleFailureIsMaskedTriples) {
  const auto config = small_config(Topology::Triples);
  const auto expected = reference_hash(config);
  Coordinator coordinator(config, std::make_unique<HeatKernel>());
  const FailureInjection failures[] = {{13, 4}};
  const auto report = coordinator.run(failures);
  ASSERT_FALSE(report.fatal) << report.fatal_reason;
  EXPECT_EQ(report.final_hash, expected);
  EXPECT_EQ(report.replayed_steps, 5u);  // 13 -> 8
}

TEST(RuntimeTest, FailureBeforeFirstCheckpointRestartsFromInitial) {
  const auto config = small_config(Topology::Pairs);
  const auto expected = reference_hash(config);
  Coordinator coordinator(config, std::make_unique<HeatKernel>());
  const FailureInjection failures[] = {{5, 0}};
  const auto report = coordinator.run(failures);
  ASSERT_FALSE(report.fatal);
  EXPECT_EQ(report.replayed_steps, 5u);  // back to step 0
  EXPECT_EQ(report.final_hash, expected);
}

TEST(RuntimeTest, MultipleSeparatedFailuresAreMasked) {
  const auto config = small_config(Topology::Pairs);
  const auto expected = reference_hash(config);
  Coordinator coordinator(config, std::make_unique<HeatKernel>());
  const FailureInjection failures[] = {{10, 1}, {20, 3}, {33, 0}};
  const auto report = coordinator.run(failures);
  ASSERT_FALSE(report.fatal);
  EXPECT_EQ(report.failures, 3u);
  EXPECT_EQ(report.rollbacks, 3u);
  EXPECT_EQ(report.final_hash, expected);
}

TEST(RuntimeTest, RepeatedFailureOfSameNodeIsMasked) {
  const auto config = small_config(Topology::Pairs);
  const auto expected = reference_hash(config);
  Coordinator coordinator(config, std::make_unique<HeatKernel>());
  const FailureInjection failures[] = {{9, 2}, {17, 2}, {25, 2}};
  const auto report = coordinator.run(failures);
  ASSERT_FALSE(report.fatal);
  EXPECT_EQ(report.final_hash, expected);
}

TEST(RuntimeTest, PairLosingBothMembersAtOnceIsFatal) {
  const auto config = small_config(Topology::Pairs);
  Coordinator coordinator(config, std::make_unique<HeatKernel>());
  const FailureInjection failures[] = {{12, 0}, {12, 1}};
  const auto report = coordinator.run(failures);
  EXPECT_TRUE(report.fatal);
  EXPECT_NE(report.fatal_reason.find("no surviving replica"),
            std::string::npos);
}

TEST(RuntimeTest, TripleSurvivesTwoSequentialFailures) {
  // Two failures in the same triple, with re-replication completing between
  // them (different steps): both are masked -- the paper's headline triple
  // property.
  const auto config = small_config(Topology::Triples);
  const auto expected = reference_hash(config);
  Coordinator coordinator(config, std::make_unique<HeatKernel>());
  const FailureInjection failures[] = {{12, 0}, {13, 1}};
  const auto report = coordinator.run(failures);
  ASSERT_FALSE(report.fatal) << report.fatal_reason;
  EXPECT_EQ(report.failures, 2u);
  EXPECT_EQ(report.final_hash, expected);
}

TEST(RuntimeTest, TripleTwoSimultaneousFailuresAreFatal) {
  // Refinement over the paper's first-order risk model: in the rotation
  // topology the two victims of a *simultaneous* double failure are exactly
  // the two holders of the survivor's image, so the survivor cannot roll
  // back -- the set is lost with only two hits. The model's
  // "three successive failures" claim assumes re-replication completes
  // between hits (see DESIGN.md).
  const auto config = small_config(Topology::Triples);
  Coordinator coordinator(config, std::make_unique<HeatKernel>());
  const FailureInjection failures[] = {{12, 0}, {12, 1}};
  const auto report = coordinator.run(failures);
  EXPECT_TRUE(report.fatal);
  EXPECT_NE(report.fatal_reason.find("no surviving replica"),
            std::string::npos);
}

TEST(RuntimeTest, TripleLosingWholeGroupIsFatal) {
  const auto config = small_config(Topology::Triples);
  Coordinator coordinator(config, std::make_unique<HeatKernel>());
  const FailureInjection failures[] = {{12, 3}, {12, 4}, {12, 5}};
  const auto report = coordinator.run(failures);
  EXPECT_TRUE(report.fatal);
}

TEST(RuntimeTest, CounterKernelClosedFormSurvivesFailures) {
  auto config = small_config(Topology::Pairs);
  config.total_steps = 30;
  Coordinator coordinator(config, std::make_unique<CounterKernel>());
  const FailureInjection failures[] = {{11, 1}, {23, 2}};
  const auto report = coordinator.run(failures);
  ASSERT_FALSE(report.fatal);
  const auto state = coordinator.global_state();
  for (std::size_t i = 0; i < state.size(); ++i) {
    EXPECT_DOUBLE_EQ(state[i], static_cast<double>(i) + 30.0) << i;
  }
}

TEST(RuntimeTest, WaveKernelFailuresAreMasked) {
  // The wave kernel packs two time levels per block; a failure must restore
  // both consistently or the leapfrog scheme falls apart visibly.
  auto config = small_config(Topology::Pairs);
  config.cells_per_node = 256;  // even: two levels of 128 physical cells
  Coordinator reference(config, std::make_unique<WaveKernel>());
  const auto expected = reference.run();
  ASSERT_FALSE(expected.fatal);

  Coordinator coordinator(config, std::make_unique<WaveKernel>());
  const FailureInjection failures[] = {{19, 1}, {30, 2}};
  const auto report = coordinator.run(failures);
  ASSERT_FALSE(report.fatal) << report.fatal_reason;
  EXPECT_EQ(report.failures, 2u);
  EXPECT_EQ(report.final_hash, expected.final_hash);
}

TEST(RuntimeTest, ResultIndependentOfThreadCount) {
  auto config = small_config(Topology::Pairs);
  config.threads = 1;
  const auto h1 = reference_hash(config);
  config.threads = 4;
  const auto h4 = reference_hash(config);
  EXPECT_EQ(h1, h4);

  // dcp on, and a loss that replays base + chain. Commits hash and diff
  // every node on the stepping pool, so every counter must match too.
  auto dcp = small_config(Topology::Pairs);
  dcp.cells_per_node = 1024;  // two pages per node
  dcp.dcp_stack_size = 4;
  dcp.dcp_block_size = 1024;
  // Full commit at 8, deltas at 16 and 24: the loss at 29 replays 2 layers.
  const FailureInjection failures[] = {{29, 1}};
  dcp.threads = 1;
  const auto one =
      Coordinator(dcp, std::make_unique<HeatKernel>()).run(failures);
  dcp.threads = 4;
  const auto four =
      Coordinator(dcp, std::make_unique<HeatKernel>()).run(failures);
  ASSERT_FALSE(one.fatal) << one.fatal_reason;
  EXPECT_GT(one.chain_replays, 0u);
  EXPECT_EQ(one.final_hash, reference_hash(dcp));
  EXPECT_EQ(one.final_hash, four.final_hash);
  EXPECT_TRUE(one == four) << "RunReport differs between 1 and 4 threads";
}

TEST(StagedRuntimeTest, FaultFreeStagingMatchesBlockingResult) {
  auto config = small_config(Topology::Pairs);
  const auto blocking = reference_hash(config);
  config.staging_steps = 4;
  Coordinator coordinator(config, std::make_unique<HeatKernel>());
  const auto report = coordinator.run();
  ASSERT_FALSE(report.fatal);
  EXPECT_EQ(report.final_hash, blocking);
  EXPECT_EQ(report.checkpoints, 4u);
}

TEST(StagedRuntimeTest, FailureDuringStagingRollsBackFurther) {
  // interval 8, staging 4: snapshot taken at 16 commits at 20. A failure at
  // step 18 must fall back to the previous committed set (snapshot of 8),
  // re-executing 10 steps -- the blocking run would only replay 2.
  auto config = small_config(Topology::Pairs);
  config.staging_steps = 4;
  const auto expected = reference_hash(config);
  Coordinator coordinator(config, std::make_unique<HeatKernel>());
  const FailureInjection failures[] = {{18, 1}};
  const auto report = coordinator.run(failures);
  ASSERT_FALSE(report.fatal) << report.fatal_reason;
  EXPECT_EQ(report.replayed_steps, 10u);
  EXPECT_EQ(report.final_hash, expected);
}

TEST(StagedRuntimeTest, FailureAfterCommitRollsBackToSnapshotStep) {
  // Failure at 21: snapshot-of-16 committed at 20, so only 5 steps replay.
  auto config = small_config(Topology::Pairs);
  config.staging_steps = 4;
  Coordinator coordinator(config, std::make_unique<HeatKernel>());
  const FailureInjection failures[] = {{21, 0}};
  const auto report = coordinator.run(failures);
  ASSERT_FALSE(report.fatal);
  EXPECT_EQ(report.replayed_steps, 5u);
}

TEST(StagedRuntimeTest, FailureBeforeFirstCommitRestartsFromInitial) {
  auto config = small_config(Topology::Pairs);
  config.staging_steps = 4;
  const auto expected = reference_hash(config);
  Coordinator coordinator(config, std::make_unique<HeatKernel>());
  const FailureInjection failures[] = {{10, 2}};  // staging of step 8 live
  const auto report = coordinator.run(failures);
  ASSERT_FALSE(report.fatal);
  EXPECT_EQ(report.replayed_steps, 10u);  // all the way back to step 0
  EXPECT_EQ(report.final_hash, expected);
}

TEST(StagedRuntimeTest, StagingEqualToIntervalIsBackToBack) {
  auto config = small_config(Topology::Pairs);
  config.staging_steps = config.checkpoint_interval;
  const auto expected = reference_hash(config);
  Coordinator coordinator(config, std::make_unique<HeatKernel>());
  const FailureInjection failures[] = {{27, 3}};
  const auto report = coordinator.run(failures);
  ASSERT_FALSE(report.fatal);
  // Snapshot-of-16 commits at 24; failure at 27 replays 11 steps.
  EXPECT_EQ(report.replayed_steps, 11u);
  EXPECT_EQ(report.final_hash, expected);
}

TEST(StagedRuntimeTest, TriplesMaskFailuresWithStaging) {
  auto config = small_config(Topology::Triples);
  config.staging_steps = 3;
  const auto expected = reference_hash(config);
  Coordinator coordinator(config, std::make_unique<HeatKernel>());
  const FailureInjection failures[] = {{9, 0}, {26, 5}};
  const auto report = coordinator.run(failures);
  ASSERT_FALSE(report.fatal) << report.fatal_reason;
  EXPECT_EQ(report.final_hash, expected);
}

TEST(StagedRuntimeTest, StagingLongerThanIntervalRejected) {
  auto config = small_config(Topology::Pairs);
  config.staging_steps = config.checkpoint_interval + 1;
  EXPECT_THROW(Coordinator(config, std::make_unique<HeatKernel>()),
               std::invalid_argument);
}

TEST(RuntimeTest, CowCopiesAreCounted) {
  const auto config = small_config(Topology::Pairs);
  Coordinator coordinator(config, std::make_unique<HeatKernel>());
  const auto report = coordinator.run();
  // Snapshots stay alive in buddy stores while the app keeps writing:
  // COW must have duplicated pages.
  EXPECT_GT(report.cow_copies, 0u);
}

TEST(RuntimeTest, ConfigValidation) {
  RuntimeConfig config = small_config(Topology::Pairs);
  config.nodes = 5;
  EXPECT_THROW(Coordinator(config, std::make_unique<HeatKernel>()),
               std::invalid_argument);
  config = small_config(Topology::Triples);
  config.nodes = 4;
  EXPECT_THROW(Coordinator(config, std::make_unique<HeatKernel>()),
               std::invalid_argument);
  config = small_config(Topology::Pairs);
  config.checkpoint_interval = 0;
  EXPECT_THROW(Coordinator(config, std::make_unique<HeatKernel>()),
               std::invalid_argument);
  config = small_config(Topology::Pairs);
  EXPECT_THROW(Coordinator(config, nullptr), std::invalid_argument);
  config.cells_per_node = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  EXPECT_THROW(Coordinator(config, std::make_unique<HeatKernel>()),
               std::invalid_argument);
}

TEST(RuntimeTest, InjectionNodeOutOfRangeThrows) {
  const auto config = small_config(Topology::Pairs);
  Coordinator coordinator(config, std::make_unique<HeatKernel>());
  const FailureInjection failures[] = {{3, 99}};
  EXPECT_THROW(coordinator.run(failures), std::invalid_argument);
}

// ------------------------------------------------- injection validation
//
// validate_injections is the one check shared by both drivers, the chaos
// oracle and the chaos schedule generators.

/// What validate_injections says about `failure` under `policy` ("" when
/// it accepts the injection).
std::string rejection(const CheckpointPolicy& policy,
                      const FailureInjection& failure) {
  try {
    validate_injections(std::span(&failure, 1), policy);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(InjectionValidationTest, CorruptTargetMustHoldTheOwnersImage) {
  // Spelled here independently of GroupAssignment::holders: a pair member
  // holds its own image and its buddy's, a triple member the images of its
  // two group peers but never its own.
  for (const Topology topology : {Topology::Pairs, Topology::Triples}) {
    const CheckpointPolicy policy = small_config(topology);
    const std::uint64_t size = topology == Topology::Pairs ? 2 : 3;
    for (std::uint64_t owner = 0; owner < policy.nodes; ++owner) {
      for (std::uint64_t node = 0; node < policy.nodes; ++node) {
        const bool holds = node / size == owner / size &&
                           (topology == Topology::Pairs || node != owner);
        const FailureInjection corrupt{10, node, InjectionKind::CorruptReplica,
                                       owner};
        EXPECT_EQ(rejection(policy, corrupt).empty(), holds)
            << "holder " << node << " owner " << owner;
      }
    }
  }
}

TEST(InjectionValidationTest, EachRuleNamesItselfInTheMessage) {
  CheckpointPolicy policy = small_config(Topology::Pairs);
  policy.dcp_stack_size = 3;
  CheckpointPolicy plain = small_config(Topology::Pairs);
  CheckpointPolicy verified = small_config(Topology::Pairs);
  verified.verify_every = 2;
  const std::uint64_t last_step = policy.total_steps - 1;
  struct Case {
    const CheckpointPolicy* policy;
    FailureInjection failure;
    const char* message;  ///< "" = accepted
  };
  const Case cases[] = {
      {&policy, {last_step, policy.nodes - 1}, ""},
      {&policy, {0, policy.nodes}, "node out of range"},
      {&policy, {policy.total_steps, 0}, "step out of range"},
      // The node is checked first, so a bad node wins over a bad step.
      {&policy, {policy.total_steps, policy.nodes}, "node out of range"},
      // With verification off a silent error is never observed, and the
      // schedule would pass vacuously.
      {&policy, {5, 1, InjectionKind::SilentError}, "requires verification"},
      {&verified, {5, 1, InjectionKind::SilentError}, ""},
      {&policy, {5, 0, InjectionKind::TornDelta, 0, 2}, ""},
      {&plain, {5, 0, InjectionKind::TornDelta, 0, 1}, "requires dcp enabled"},
      {&policy, {5, 0, InjectionKind::TornDelta, 0, 0}, "torn-delta depth"},
      {&policy, {5, 0, InjectionKind::TornDelta, 0, 3}, "torn-delta depth"},
      {&policy, {5, 1, InjectionKind::CorruptReplica, 0}, ""},
      {&policy,
       {5, 1, InjectionKind::CorruptReplica, policy.nodes},
       "owner out of range"},
      {&policy,
       {5, 2, InjectionKind::CorruptReplica, 0},
       "does not hold the owner's replica"},
      {&policy, {5, 3, InjectionKind::TornTransfer}, ""},
      {&policy, {5, 3, InjectionKind::FailTransfer}, ""},
      {&policy, {5, 3, InjectionKind::Alarm, 0, 4}, ""},
  };
  for (const Case& c : cases) {
    const std::string got = rejection(*c.policy, c.failure);
    const std::string want = c.message;
    if (want.empty()) {
      EXPECT_EQ(got, "") << "step " << c.failure.step << " node "
                         << c.failure.node;
    } else {
      EXPECT_EQ(got.rfind("FailureInjection: ", 0), 0u) << got;
      EXPECT_NE(got.find(want), std::string::npos)
          << "want '" << want << "', got '" << got << "'";
    }
  }
}

TEST(InjectionValidationTest, DriversRejectWithTheValidatorsMessage) {
  // Both runtimes refuse a bad schedule up front, with the validator's own
  // words (what `dckpt chaos --schedule` prints).
  const RuntimeConfig chain = small_config(Topology::Pairs);
  GridConfig grid;
  grid.block_rows = 8;
  grid.block_cols = 8;
  grid.checkpoint_interval = chain.checkpoint_interval;
  grid.total_steps = chain.total_steps;
  grid.threads = 2;
  ASSERT_EQ(grid.nodes(), chain.nodes);
  const FailureInjection bad[] = {
      {chain.total_steps, 0},
      {3, chain.nodes},
      {3, 2, InjectionKind::CorruptReplica, 0},
      {3, 0, InjectionKind::SilentError},
  };
  for (const FailureInjection& failure : bad) {
    const std::string message = rejection(chain, failure);
    ASSERT_NE(message, "");
    const std::span<const FailureInjection> one(&failure, 1);
    Coordinator coordinator(chain, std::make_unique<HeatKernel>());
    try {
      coordinator.run(one);
      ADD_FAILURE() << "chain runtime accepted: " << message;
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string(error.what()), message);
    }
    GridCoordinator grid_coordinator(grid, std::make_unique<HeatKernel2D>());
    try {
      grid_coordinator.run(one);
      ADD_FAILURE() << "grid runtime accepted: " << message;
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string(error.what()), message);
    }
  }
}

// Re-replication delay: the runtime realization of the model's risk window.
// small_config commits at steps 8/16/24/32 (staging 0), so a failure at
// step 9 rolls back to step 8 and the refill lands `delay` executed steps
// later.

TEST(RiskWindowTest, SecondHitInsideWindowIsFatal) {
  auto config = small_config(Topology::Pairs);
  config.rereplication_delay_steps = 3;
  Coordinator coordinator(config, std::make_unique<HeatKernel>());
  // Buddy dies 2 executed steps after the rollback, refill needs 3.
  const FailureInjection failures[] = {{9, 0}, {10, 1}};
  const auto report = coordinator.run(failures);
  EXPECT_TRUE(report.fatal);
  EXPECT_TRUE(report.degraded);
  EXPECT_EQ(report.fatal_node, 0u);
  EXPECT_EQ(report.fatal_step, 10u);
  EXPECT_NE(report.fatal_reason.find("no surviving replica of node 0"),
            std::string::npos);
  // Fatal runs continue in degraded mode instead of aborting: the full 40
  // steps complete (plus 1 + 2 replayed), the 2-tick window before the
  // second hit is joined by 3 more ticks until the re-derived refill's
  // empty delivery, and the blank-restarted pair runs degraded until the
  // step-16 commit re-establishes every replica.
  EXPECT_EQ(report.steps_executed, 43u);
  EXPECT_EQ(report.replayed_steps, 3u);
  EXPECT_EQ(report.risk_steps, 5u);
  EXPECT_EQ(report.degraded_steps, 8u);
  EXPECT_EQ(report.rereplications, 0u);
}

TEST(RiskWindowTest, SecondHitAfterRefillIsMasked) {
  auto config = small_config(Topology::Pairs);
  config.rereplication_delay_steps = 3;
  const auto expected = reference_hash(small_config(Topology::Pairs));
  Coordinator coordinator(config, std::make_unique<HeatKernel>());
  // Buddy dies 4 executed steps after the rollback: refill landed at 11.
  const FailureInjection failures[] = {{9, 0}, {12, 1}};
  const auto report = coordinator.run(failures);
  ASSERT_FALSE(report.fatal) << report.fatal_reason;
  EXPECT_EQ(report.final_hash, expected);
  EXPECT_EQ(report.rereplications, 2u);  // one refill per loss
  EXPECT_EQ(report.risk_steps, 6u);      // two 3-step windows
  EXPECT_EQ(report.recoveries, 2u);      // each victim restored from a peer
}

TEST(RiskWindowTest, CommitClosesTheWindow) {
  auto config = small_config(Topology::Pairs);
  // Refill slower than the checkpoint interval: the step-16 commit
  // re-creates every replica and must subsume the pending refill.
  config.rereplication_delay_steps = 20;
  const auto expected = reference_hash(small_config(Topology::Pairs));
  Coordinator coordinator(config, std::make_unique<HeatKernel>());
  const FailureInjection failures[] = {{9, 0}, {18, 1}};
  const auto report = coordinator.run(failures);
  ASSERT_FALSE(report.fatal) << report.fatal_reason;
  EXPECT_EQ(report.final_hash, expected);
  EXPECT_EQ(report.rereplications, 0u);  // never completed, always subsumed
  // Window open for the 8 executed steps from the rollback to the commit,
  // then again from the second rollback (at 16) to the step-24 commit.
  EXPECT_EQ(report.risk_steps, 16u);
}

TEST(RiskWindowTest, ZeroDelayRefillsImmediately) {
  auto config = small_config(Topology::Pairs);
  const auto expected = reference_hash(config);
  Coordinator coordinator(config, std::make_unique<HeatKernel>());
  // The same back-to-back buddy hits that are fatal under a delay.
  const FailureInjection failures[] = {{9, 0}, {10, 1}};
  const auto report = coordinator.run(failures);
  ASSERT_FALSE(report.fatal) << report.fatal_reason;
  EXPECT_EQ(report.final_hash, expected);
  EXPECT_EQ(report.risk_steps, 0u);
  EXPECT_EQ(report.rereplications, 2u);
}

TEST(RiskWindowTest, TriplesLoseTheThirdImageInsideTheWindow) {
  auto config = small_config(Topology::Triples);
  config.rereplication_delay_steps = 3;
  Coordinator coordinator(config, std::make_unique<HeatKernel>());
  // Nodes 0 and 1 die 2 steps apart: node 2's image lived exactly on their
  // two stores, and the refill of store 0 is still pending.
  const FailureInjection failures[] = {{9, 0}, {10, 1}};
  const auto report = coordinator.run(failures);
  EXPECT_TRUE(report.fatal);
  EXPECT_NE(report.fatal_reason.find("no surviving replica of node 2"),
            std::string::npos);
}

TEST(RiskWindowTest, TriplesSurviveTheSameHitsOnceRefilled) {
  auto config = small_config(Topology::Triples);
  config.rereplication_delay_steps = 3;
  const auto expected = reference_hash(small_config(Topology::Triples));
  Coordinator coordinator(config, std::make_unique<HeatKernel>());
  const FailureInjection failures[] = {{9, 0}, {13, 1}};
  const auto report = coordinator.run(failures);
  ASSERT_FALSE(report.fatal) << report.fatal_reason;
  EXPECT_EQ(report.final_hash, expected);
}

// Corruption-tolerant recovery: silent replica corruption must be detected
// at restore time; the ladder fails over to the next intact image, and only
// a node with *no* intact image anywhere degrades the run -- it never
// aborts it.

TEST(CorruptionTest, TriplesFailOverToSecondaryWhenPreferredCorrupt) {
  const auto config = small_config(Topology::Triples);
  const auto expected = reference_hash(config);
  Coordinator coordinator(config, std::make_unique<HeatKernel>());
  // Node 0's preferred replica (on node 1) is silently corrupted after the
  // step-8 commit; node 0 then dies. The rollback must detect the damage
  // and restore node 0 from its secondary copy on node 2.
  const FailureInjection failures[] = {
      {10, 1, InjectionKind::CorruptReplica, 0},
      {12, 0},
  };
  const auto report = coordinator.run(failures);
  ASSERT_FALSE(report.fatal) << report.fatal_reason;
  EXPECT_EQ(report.failovers, 1u);
  EXPECT_EQ(report.corrupt_images_detected, 1u);
  EXPECT_EQ(report.transfer_retries, 0u);
  EXPECT_FALSE(report.degraded);
  EXPECT_EQ(report.final_hash, expected);
}

TEST(CorruptionTest, PairsOnlyReplicaCorruptedIsDegradedNotThrown) {
  const auto config = small_config(Topology::Pairs);
  const auto expected = reference_hash(config);
  Coordinator coordinator(config, std::make_unique<HeatKernel>());
  // Pairs keep one remote replica. Corrupt it, then kill the owner: the
  // ladder is exhausted, the run enters degraded mode (typed fatal fields)
  // and still completes every step without throwing.
  const FailureInjection failures[] = {
      {10, 1, InjectionKind::CorruptReplica, 0},
      {12, 0},
  };
  const auto report = coordinator.run(failures);
  EXPECT_TRUE(report.fatal);
  EXPECT_TRUE(report.degraded);
  EXPECT_EQ(report.fatal_node, 0u);
  EXPECT_EQ(report.fatal_step, 12u);
  EXPECT_NE(report.fatal_reason.find("no surviving replica of node 0"),
            std::string::npos);
  // The rollback examines the corrupt ladder rung; the inline refill of
  // store 0 scans it again looking for a clean source of node 0's image.
  EXPECT_EQ(report.corrupt_images_detected, 2u);
  // 40 steps plus the 4 replayed from the step-8 commit, all executed.
  EXPECT_EQ(report.steps_executed, 44u);
  // Blank-restarted node 0 runs degraded until the step-16 commit.
  EXPECT_EQ(report.degraded_steps, 8u);
  EXPECT_NE(report.final_hash, expected);
}

TEST(CorruptionTest, TornRefillDeliveryIsRetriedWithBackoff) {
  auto config = small_config(Topology::Pairs);
  config.rereplication_delay_steps = 3;
  config.transfer_retry = {/*max_attempts=*/3, /*base_delay_steps=*/1};
  const auto expected = reference_hash(small_config(Topology::Pairs));
  Coordinator coordinator(config, std::make_unique<HeatKernel>());
  // The refill triggered by the step-9 loss arrives torn; the engine must
  // detect the tear, retry one backoff step later, and succeed.
  const FailureInjection failures[] = {
      {9, 0, InjectionKind::TornTransfer, 0},
      {9, 0},
  };
  const auto report = coordinator.run(failures);
  ASSERT_FALSE(report.fatal) << report.fatal_reason;
  EXPECT_EQ(report.transfer_retries, 1u);
  EXPECT_EQ(report.corrupt_images_detected, 1u);
  EXPECT_EQ(report.rereplications, 1u);
  // 3 delay ticks plus 1 backoff tick with the window open.
  EXPECT_EQ(report.risk_steps, 4u);
  EXPECT_EQ(report.final_hash, expected);
}

TEST(CorruptionTest, RefillRetriesExhaustedKeepsWindowOpenUntilCommit) {
  auto config = small_config(Topology::Pairs);
  config.rereplication_delay_steps = 2;
  config.transfer_retry = {/*max_attempts=*/2, /*base_delay_steps=*/1};
  const auto expected = reference_hash(small_config(Topology::Pairs));
  Coordinator coordinator(config, std::make_unique<HeatKernel>());
  // Every delivery attempt for node 0's refill fails outright: the refill
  // is abandoned and the risk window stays open until the next commit
  // re-creates the replicas. Nothing else dies, so the run is still exact.
  const FailureInjection failures[] = {
      {9, 0, InjectionKind::FailTransfer, 0},
      {9, 0, InjectionKind::FailTransfer, 0},
      {9, 0},
  };
  const auto report = coordinator.run(failures);
  ASSERT_FALSE(report.fatal) << report.fatal_reason;
  EXPECT_EQ(report.transfer_retries, 1u);  // re-issues only, not attempts
  EXPECT_EQ(report.rereplications, 0u);    // never delivered
  // Window open for the 8 executed steps from the rollback at 9 to the
  // step-16 commit (2 delay ticks, 1 backoff tick, then abandoned).
  EXPECT_EQ(report.risk_steps, 8u);
  EXPECT_EQ(report.final_hash, expected);
}

// --- Fault prediction: alarms and proactive checkpoints -------------------

TEST(FaultPredictionTest, AlarmPredictsLossAndShortensReplay) {
  const auto config = small_config(Topology::Pairs);
  const auto expected = reference_hash(config);
  Coordinator coordinator(config, std::make_unique<HeatKernel>());
  // The alarm lands one step ahead of the kill: the proactive checkpoint
  // at step 20 commits, so the rollback replays 1 step instead of the 5
  // since the step-16 boundary.
  const FailureInjection failures[] = {
      {20, 2, InjectionKind::Alarm, 0, 1},
      {21, 2},
  };
  const auto report = coordinator.run(failures);
  ASSERT_FALSE(report.fatal) << report.fatal_reason;
  EXPECT_EQ(report.alarms_raised, 1u);
  EXPECT_EQ(report.proactive_ckpts, 1u);
  EXPECT_EQ(report.checkpoints, 5u);  // 4 periodic + 1 proactive
  EXPECT_EQ(report.true_predictions, 1u);
  EXPECT_EQ(report.missed_failures, 0u);
  EXPECT_EQ(report.replayed_steps, 1u);
  EXPECT_EQ(report.final_hash, expected);
}

TEST(FaultPredictionTest, FalseAlarmCommitsAndStaysExact) {
  const auto config = small_config(Topology::Pairs);
  const auto expected = reference_hash(config);
  Coordinator coordinator(config, std::make_unique<HeatKernel>());
  // No loss follows: the alarm costs one extra checkpoint and nothing else.
  const FailureInjection failures[] = {{13, 1, InjectionKind::Alarm, 0, 0}};
  const auto report = coordinator.run(failures);
  ASSERT_FALSE(report.fatal) << report.fatal_reason;
  EXPECT_EQ(report.alarms_raised, 1u);
  EXPECT_EQ(report.proactive_ckpts, 1u);
  EXPECT_EQ(report.true_predictions, 0u);
  EXPECT_EQ(report.missed_failures, 0u);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(report.replayed_steps, 0u);
  EXPECT_EQ(report.final_hash, expected);
}

TEST(FaultPredictionTest, AlarmAtStepZeroIsSkipped) {
  const auto config = small_config(Topology::Pairs);
  Coordinator coordinator(config, std::make_unique<HeatKernel>());
  // The implicit initial checkpoint already captures step 0's state.
  const FailureInjection failures[] = {{0, 1, InjectionKind::Alarm, 0, 0}};
  const auto report = coordinator.run(failures);
  EXPECT_EQ(report.alarms_raised, 1u);
  EXPECT_EQ(report.proactive_ckpts, 0u);
  EXPECT_EQ(report.checkpoints, 4u);
}

TEST(FaultPredictionTest, AlarmRightAfterBoundaryCommitIsSkipped) {
  const auto config = small_config(Topology::Pairs);
  Coordinator coordinator(config, std::make_unique<HeatKernel>());
  // With an unstaged exchange the step-8 boundary commits as step 8 is
  // reached, so an alarm firing at step 8 has nothing new to save.
  const FailureInjection failures[] = {{8, 1, InjectionKind::Alarm, 0, 0}};
  const auto report = coordinator.run(failures);
  EXPECT_EQ(report.alarms_raised, 1u);
  EXPECT_EQ(report.proactive_ckpts, 0u);
  EXPECT_EQ(report.checkpoints, 4u);
}

TEST(FaultPredictionTest, UnannouncedLossScoresMissed) {
  const auto config = small_config(Topology::Pairs);
  Coordinator coordinator(config, std::make_unique<HeatKernel>());
  const FailureInjection failures[] = {{21, 2}};
  const auto report = coordinator.run(failures);
  ASSERT_FALSE(report.fatal) << report.fatal_reason;
  EXPECT_EQ(report.alarms_raised, 0u);
  EXPECT_EQ(report.true_predictions, 0u);
  EXPECT_EQ(report.missed_failures, 1u);
}

TEST(FaultPredictionTest, AlarmOutsideItsWindowScoresMissed) {
  const auto config = small_config(Topology::Pairs);
  const auto expected = reference_hash(config);
  Coordinator coordinator(config, std::make_unique<HeatKernel>());
  // The alarm's window [10, 12] closes before the step-21 loss: the
  // proactive checkpoint still happens (and is later superseded by the
  // step-16 boundary), but the scoreboard records a miss.
  const FailureInjection failures[] = {
      {10, 2, InjectionKind::Alarm, 0, 2},
      {21, 2},
  };
  const auto report = coordinator.run(failures);
  ASSERT_FALSE(report.fatal) << report.fatal_reason;
  EXPECT_EQ(report.alarms_raised, 1u);
  EXPECT_EQ(report.proactive_ckpts, 1u);
  EXPECT_EQ(report.true_predictions, 0u);
  EXPECT_EQ(report.missed_failures, 1u);
  EXPECT_EQ(report.replayed_steps, 5u);  // back to the step-16 boundary
  EXPECT_EQ(report.final_hash, expected);
}

TEST(FaultPredictionTest, ProactiveCommitSupersedesStagedExchange) {
  auto config = small_config(Topology::Pairs);
  config.staging_steps = 4;
  const auto expected = reference_hash(config);
  Coordinator coordinator(config, std::make_unique<HeatKernel>());
  // The step-16 boundary's staged exchange is in flight (commit due at 20)
  // when the alarm fires at 18: the proactive commit captures the strictly
  // newer step-18 state, discards the staged set, and the kill at 19 rolls
  // back just one step.
  const FailureInjection failures[] = {
      {18, 2, InjectionKind::Alarm, 0, 1},
      {19, 2},
  };
  const auto report = coordinator.run(failures);
  ASSERT_FALSE(report.fatal) << report.fatal_reason;
  EXPECT_EQ(report.alarms_raised, 1u);
  EXPECT_EQ(report.proactive_ckpts, 1u);
  EXPECT_EQ(report.true_predictions, 1u);
  EXPECT_EQ(report.replayed_steps, 1u);
  EXPECT_EQ(report.final_hash, expected);
}

TEST(CheckpointPolicyTest, BothConfigsConvertEveryProtocolField) {
  // Every protocol field holds a distinct non-default value, so a
  // conversion that drops or swaps a field shows.
  RuntimeConfig chain;
  chain.nodes = 6;
  chain.topology = Topology::Triples;
  chain.checkpoint_interval = 11;
  chain.total_steps = 97;
  chain.staging_steps = 5;
  chain.rereplication_delay_steps = 7;
  chain.transfer_retry.max_attempts = 9;
  chain.transfer_retry.base_delay_steps = 13;
  chain.verify_every = 3;
  chain.keep_last = 4;
  chain.dcp_stack_size = 17;
  chain.dcp_block_size = 192;
  const CheckpointPolicy from_chain = chain;
  EXPECT_EQ(from_chain.nodes, 6u);
  EXPECT_EQ(from_chain.topology, Topology::Triples);
  EXPECT_EQ(from_chain.checkpoint_interval, 11u);
  EXPECT_EQ(from_chain.total_steps, 97u);
  EXPECT_EQ(from_chain.staging_steps, 5u);
  EXPECT_EQ(from_chain.rereplication_delay_steps, 7u);
  EXPECT_EQ(from_chain.transfer_retry.max_attempts, 9u);
  EXPECT_EQ(from_chain.transfer_retry.base_delay_steps, 13u);
  EXPECT_EQ(from_chain.verify_every, 3u);
  EXPECT_EQ(from_chain.keep_last, 4u);
  EXPECT_EQ(from_chain.dcp_stack_size, 17u);
  EXPECT_EQ(from_chain.dcp_block_size, 192u);

  GridConfig grid;
  grid.grid_rows = 3;
  grid.grid_cols = 5;
  grid.topology = Topology::Triples;
  grid.checkpoint_interval = 19;
  grid.total_steps = 83;
  grid.rereplication_delay_steps = 2;
  grid.transfer_retry.max_attempts = 8;
  grid.transfer_retry.base_delay_steps = 14;
  grid.verify_every = 21;
  grid.keep_last = 6;
  grid.dcp_stack_size = 23;
  grid.dcp_block_size = 320;
  const CheckpointPolicy from_grid = grid;
  EXPECT_EQ(from_grid.nodes, 15u);
  EXPECT_EQ(from_grid.topology, Topology::Triples);
  EXPECT_EQ(from_grid.checkpoint_interval, 19u);
  EXPECT_EQ(from_grid.total_steps, 83u);
  EXPECT_EQ(from_grid.staging_steps, 0u);  // the grid commits immediately
  EXPECT_EQ(from_grid.rereplication_delay_steps, 2u);
  EXPECT_EQ(from_grid.transfer_retry.max_attempts, 8u);
  EXPECT_EQ(from_grid.transfer_retry.base_delay_steps, 14u);
  EXPECT_EQ(from_grid.verify_every, 21u);
  EXPECT_EQ(from_grid.keep_last, 6u);
  EXPECT_EQ(from_grid.dcp_stack_size, 23u);
  EXPECT_EQ(from_grid.dcp_block_size, 320u);
}

TEST(CheckpointPolicyTest, DefaultAndBoundaryPoliciesValidate) {
  EXPECT_NO_THROW(CheckpointPolicy().validate());
  CheckpointPolicy policy;
  policy.staging_steps = policy.checkpoint_interval;  // back-to-back
  EXPECT_NO_THROW(policy.validate());
  policy = CheckpointPolicy();
  policy.topology = Topology::Triples;
  policy.nodes = 6;
  policy.dcp_stack_size = 4;  // dcp with the one-set ladder it needs
  EXPECT_NO_THROW(policy.validate());
}

/// One rule of CheckpointPolicy::validate(): a policy that breaks only that
/// rule, and a fragment of the message it must throw.
struct PolicyRule {
  std::string name;
  CheckpointPolicy policy;
  std::string message;
};

void PrintTo(const PolicyRule& rule, std::ostream* out) { *out << rule.name; }

std::vector<PolicyRule> policy_rules() {
  std::vector<PolicyRule> rules;
  CheckpointPolicy p;
  p.nodes = 0;
  rules.push_back({"ZeroNodes", p, "multiple of the group size"});
  p = CheckpointPolicy();
  p.nodes = 5;
  rules.push_back({"OddPairs", p, "multiple of the group size"});
  p = CheckpointPolicy();
  p.topology = Topology::Triples;
  p.nodes = 4;
  rules.push_back({"TriplesOfFour", p, "multiple of the group size"});
  p = CheckpointPolicy();
  p.checkpoint_interval = 0;
  rules.push_back({"ZeroInterval", p, "checkpoint_interval must be > 0"});
  p = CheckpointPolicy();
  p.total_steps = 0;
  rules.push_back({"ZeroSteps", p, "total_steps must be > 0"});
  p = CheckpointPolicy();
  p.staging_steps = p.checkpoint_interval + 1;
  rules.push_back({"StagingPastInterval", p, "staging_steps must be <="});
  p = CheckpointPolicy();
  p.keep_last = 0;
  rules.push_back({"ZeroKeepLast", p, "keep_last must be >= 1"});
  p = CheckpointPolicy();
  p.dcp_stack_size = 2;
  p.dcp_block_size = 0;
  rules.push_back({"DcpZeroBlock", p, "dcp_block_size must be > 0"});
  p = CheckpointPolicy();
  p.dcp_stack_size = 2;
  p.staging_steps = 1;
  rules.push_back({"DcpWithStaging", p, "dcp requires"});
  p = CheckpointPolicy();
  p.dcp_stack_size = 2;
  p.verify_every = 3;
  rules.push_back({"DcpWithVerification", p, "dcp requires"});
  p = CheckpointPolicy();
  p.dcp_stack_size = 2;
  p.keep_last = 2;
  rules.push_back({"DcpWithDeeperLadder", p, "dcp requires"});
  p = CheckpointPolicy();
  p.transfer_retry.max_attempts = 0;
  rules.push_back({"ZeroTransferAttempts", p, "max_attempts must be >= 1"});
  return rules;
}

std::string rule_name(const ::testing::TestParamInfo<PolicyRule>& info) {
  return info.param.name;
}

class CheckpointPolicyRuleTest : public ::testing::TestWithParam<PolicyRule> {};

TEST_P(CheckpointPolicyRuleTest, RejectsWithItsMessage) {
  try {
    GetParam().policy.validate();
    FAIL() << "accepted a policy that breaks " << GetParam().name;
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(GetParam().message),
              std::string::npos)
        << error.what();
  }
}

INSTANTIATE_TEST_SUITE_P(Rules, CheckpointPolicyRuleTest,
                         ::testing::ValuesIn(policy_rules()), rule_name);

TEST(RuntimeTest, FinalHashIsTheStateHashOfTheGlobalState) {
  // run() chains the hash across the nodes' cells instead of hashing a
  // concatenated copy; the two must agree, with and without failures.
  for (const bool with_failure : {false, true}) {
    Coordinator coordinator(small_config(Topology::Pairs),
                            std::make_unique<HeatKernel>());
    const FailureInjection failures[] = {{13, 2}};
    const auto report = with_failure ? coordinator.run(failures)
                                     : coordinator.run();
    ASSERT_FALSE(report.fatal) << report.fatal_reason;
    EXPECT_EQ(report.final_hash, state_hash(coordinator.global_state()))
        << "with_failure=" << with_failure;
  }
}

TEST(StateHashTest, SeesEveryValueAndItsPosition) {
  const std::vector<double> state{1.0, 2.0, 3.0, 4.0};
  const std::uint64_t hash = state_hash(state);
  EXPECT_EQ(hash, state_hash(std::vector<double>(state)));
  auto changed = state;
  changed[3] = std::nextafter(4.0, 5.0);  // one ulp in the last value
  EXPECT_NE(state_hash(changed), hash);
  const std::vector<double> swapped{2.0, 1.0, 3.0, 4.0};
  EXPECT_NE(state_hash(swapped), hash);
  EXPECT_NE(state_hash(std::span(state).first(3)), hash);
}

}  // namespace
