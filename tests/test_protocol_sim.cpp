#include "sim/protocol_sim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "model/scenario.hpp"
#include "model/waste.hpp"

namespace {

using namespace dckpt::sim;
using dckpt::model::base_scenario;
using dckpt::model::Parameters;
using dckpt::model::Protocol;

/// Deterministic injector replaying a fixed failure schedule, then silence.
class ScriptedInjector final : public FailureInjector {
 public:
  ScriptedInjector(std::vector<FailureEvent> events, std::uint64_t nodes)
      : events_(std::move(events)), nodes_(nodes) {}

  FailureEvent peek() override {
    if (cursor_ < events_.size()) return events_[cursor_];
    return {std::numeric_limits<double>::infinity(), 0};
  }
  void pop() override { ++cursor_; }
  void on_node_replaced(std::uint64_t, double, double) override {}
  std::uint64_t node_count() const override { return nodes_; }

 private:
  std::vector<FailureEvent> events_;
  std::size_t cursor_ = 0;
  std::uint64_t nodes_;
};

Parameters test_params(double phi = 1.0) {
  auto p = base_scenario().params;  // D=0 delta=2 R=4 alpha=10
  p.overhead = phi;                 // theta = 4 + 10*(4-phi)
  p.nodes = 6;                      // divisible by 2 and 3
  p.mtbf = 1e12;                    // effectively failure-free by default
  return p;
}

SimConfig make_config(Protocol protocol, double period, double t_base,
                      double phi = 1.0) {
  SimConfig config;
  config.protocol = protocol;
  config.params = test_params(phi);
  config.period = period;
  config.t_base = t_base;
  return config;
}

TrialResult run_scripted(const SimConfig& config,
                         std::vector<FailureEvent> events,
                         Trace* trace = nullptr) {
  ProtocolSimulation simulation(
      config,
      std::make_unique<ScriptedInjector>(std::move(events),
                                         config.params.nodes));
  return simulation.run(trace);
}

// -------------------------------------------------------------- fault-free

TEST(FaultFreeTest, DoubleNblWasteEqualsModelExactly) {
  // P=100, delta=2, phi=1: W = 97 per period; 10 periods = 1000 s.
  const auto config = make_config(Protocol::DoubleNbl, 100.0, 970.0);
  const auto result = run_scripted(config, {});
  EXPECT_NEAR(result.makespan, 1000.0, 1e-6);
  EXPECT_NEAR(result.waste(),
              dckpt::model::waste_fault_free(Protocol::DoubleNbl,
                                             config.params, 100.0),
              1e-9);
  EXPECT_EQ(result.failures, 0u);
  EXPECT_FALSE(result.fatal);
}

TEST(FaultFreeTest, TripleWasteEqualsModelExactly) {
  // P=100, phi=1: W = 98 per period.
  const auto config = make_config(Protocol::Triple, 100.0, 980.0);
  const auto result = run_scripted(config, {});
  EXPECT_NEAR(result.makespan, 1000.0, 1e-6);
  EXPECT_NEAR(result.waste(), 0.02, 1e-9);
}

TEST(FaultFreeTest, DoubleBlockingWasteEqualsModelExactly) {
  // theta = phi = R = 4: W = P - delta - R = 94 per period of 100.
  const auto config = make_config(Protocol::DoubleBlocking, 100.0, 940.0);
  const auto result = run_scripted(config, {});
  EXPECT_NEAR(result.makespan, 1000.0, 1e-6);
  EXPECT_NEAR(result.waste(), 0.06, 1e-9);
}

TEST(FaultFreeTest, FinishesMidPeriodExactly) {
  // t_base = 97 + 50: one full period (100 s) + part1 (2, no work) +
  // part2 (34 s for 33 units) + 17 s of part3.
  const auto config = make_config(Protocol::DoubleNbl, 100.0, 147.0);
  const auto result = run_scripted(config, {});
  EXPECT_NEAR(result.makespan, 100.0 + 2.0 + 34.0 + 17.0, 1e-6);
}

TEST(FaultFreeTest, FullOverlapTripleHasZeroWaste) {
  const auto config = make_config(Protocol::Triple, 176.0, 880.0, 0.0);
  const auto result = run_scripted(config, {});
  EXPECT_NEAR(result.waste(), 0.0, 1e-9);
  EXPECT_NEAR(result.makespan, 880.0, 1e-6);
}

// ------------------------------------------------------------ one failure

TEST(SingleFailureTest, NblPartThreeHandComputed) {
  // Failure at t=50 in part 3 of the first period. Hand computation:
  // work(50) = 33 (part2) + 14 (part3) = 47, committed = 0;
  // repair = D(0) + R(4) + reexec(34 @ 33/34 + 14 @ 1 = 48);
  // then 50 s to finish the interrupted part 3.
  const auto config = make_config(Protocol::DoubleNbl, 100.0, 97.0);
  const auto result = run_scripted(config, {{50.0, 0}});
  EXPECT_EQ(result.failures, 1u);
  EXPECT_NEAR(result.makespan, 50.0 + 4.0 + 48.0 + 50.0, 1e-6);
  // Loss breakdown identity: makespan - t_base.
  EXPECT_NEAR(result.time_checkpointing + result.time_down +
                  result.time_recovering + result.time_reexecuting,
              result.makespan - result.t_base, 1e-6);
  EXPECT_NEAR(result.time_recovering, 4.0, 1e-9);
  EXPECT_NEAR(result.time_reexecuting, 48.0, 1e-9);
}

TEST(SingleFailureTest, BofRecoversBlockingButReexecutesFullSpeed) {
  // Same failure; BOF: recovery 2R = 8, re-execution at full speed = 47.
  const auto config = make_config(Protocol::DoubleBof, 100.0, 97.0);
  const auto result = run_scripted(config, {{50.0, 0}});
  EXPECT_NEAR(result.makespan, 50.0 + 8.0 + 47.0 + 50.0, 1e-6);
  EXPECT_NEAR(result.time_recovering, 8.0, 1e-9);
  EXPECT_NEAR(result.time_reexecuting, 47.0, 1e-9);
}

TEST(SingleFailureTest, TriplePartTwoHandComputed) {
  // Triple P=100: parts (34, 34, 32), commit at end of part 1 covers the
  // state at period start (work 0 in period one). Failure at t=40:
  // work = 33 + 6*(33/34) = 1320/34; repair = R(4) + reexec(1320/33 = 40);
  // resume part 2 (28 s left), part 3 (32 s).
  const auto config = make_config(Protocol::Triple, 100.0, 98.0);
  const auto result = run_scripted(config, {{40.0, 0}});
  EXPECT_NEAR(result.makespan, 40.0 + 4.0 + 40.0 + 28.0 + 32.0, 1e-6);
}

TEST(SingleFailureTest, FailureDuringLocalCheckpointLosesPreviousPeriod) {
  // Failure at t=101 (part 1 of period 2). committed = 0 (period-1 snapshot
  // of state 0 committed at t=36)... no: at end of period-1 part 2, the
  // snapshot of work level 0 commits; the period-2 snapshot (level 97) is
  // still local-only. Rollback target is 0: the full previous period's work
  // re-executes.
  const auto config = make_config(Protocol::DoubleNbl, 100.0, 194.0);
  const auto result = run_scripted(config, {{101.0, 0}});
  // Timeline: 101 (fail) + 0 + 4 (R) + reexec(34 @33/34 + (97-33) @1 = 98)
  // + resume part1 remaining 1 s + part2 34 + part3 64 ... but work hits
  // t_base at 97 + 97: finishes exactly at end of period 2's part 3.
  EXPECT_NEAR(result.makespan, 101.0 + 4.0 + 98.0 + 1.0 + 34.0 + 64.0, 1e-6);
  EXPECT_EQ(result.failures, 1u);
}

TEST(SingleFailureTest, FailureDuringDowntimeRestartsRepair) {
  auto config = make_config(Protocol::DoubleNbl, 100.0, 97.0);
  config.params.downtime = 10.0;
  config.period = 100.0;
  // First failure at 50 -> down [50,60); second failure at 55 restarts
  // downtime; repair completes at 55 + 10 + 4 + 48, then 50 s remain.
  const auto result = run_scripted(config, {{50.0, 0}, {55.0, 2}});
  EXPECT_EQ(result.failures, 2u);
  EXPECT_FALSE(result.fatal);  // node 2 is not node 0's buddy
  EXPECT_NEAR(result.makespan, 55.0 + 10.0 + 4.0 + 48.0 + 50.0, 1e-6);
}

// ------------------------------------------------------------ fatal logic

TEST(FatalTest, BuddyFailureInsideRiskWindowStopsRun) {
  // NBL risk window = D + R + theta = 38. Buddy (node 1) fails 10 s after
  // node 0: fatal.
  const auto config = make_config(Protocol::DoubleNbl, 100.0, 1000.0);
  const auto result = run_scripted(config, {{50.0, 0}, {60.0, 1}});
  EXPECT_TRUE(result.fatal);
  EXPECT_NEAR(result.fatal_time, 60.0, 1e-9);
  EXPECT_NEAR(result.makespan, 60.0, 1e-9);
}

TEST(FatalTest, BuddyFailureAfterWindowIsSurvivable) {
  // Window after t=50 closes at 88; buddy failure at 100 is safe.
  const auto config = make_config(Protocol::DoubleNbl, 100.0, 97.0);
  const auto result = run_scripted(config, {{50.0, 0}, {100.0, 1}});
  EXPECT_FALSE(result.fatal);
  EXPECT_EQ(result.failures, 2u);
}

TEST(FatalTest, BofWindowIsShorterThanNbl) {
  // BOF risk = D + 2R = 8: the same 10 s gap is survivable.
  const auto config = make_config(Protocol::DoubleBof, 100.0, 1000.0);
  const auto result = run_scripted(config, {{50.0, 0}, {60.0, 1}});
  EXPECT_FALSE(result.fatal);
}

TEST(FatalTest, TripleNeedsThreeFailures) {
  const auto config = make_config(Protocol::Triple, 100.0, 1000.0);
  // Nodes 0,1,2 form a triple; risk = D + R + 2 theta = 72.
  const auto two = run_scripted(config, {{50.0, 0}, {55.0, 1}});
  EXPECT_FALSE(two.fatal);
  const auto three = run_scripted(config, {{50.0, 0}, {55.0, 1}, {60.0, 2}});
  EXPECT_TRUE(three.fatal);
}

TEST(FatalTest, ContinueAfterFatalWhenRequested) {
  auto config = make_config(Protocol::DoubleNbl, 100.0, 97.0);
  config.stop_on_fatal = false;
  const auto result = run_scripted(config, {{50.0, 0}, {60.0, 1}});
  EXPECT_TRUE(result.fatal);
  EXPECT_GT(result.makespan, 100.0);  // run completed anyway
  EXPECT_NEAR(result.fatal_time, 60.0, 1e-9);
}

// ------------------------------------------------------------------ trace

TEST(TraceTest, FaultFreePeriodOrdering) {
  const auto config = make_config(Protocol::DoubleNbl, 100.0, 97.0);
  Trace trace(true);
  run_scripted(config, {}, &trace);
  const auto& events = trace.events();
  ASSERT_GE(events.size(), 4u);
  EXPECT_EQ(events[0].kind, TraceKind::PeriodStart);
  EXPECT_EQ(events[1].kind, TraceKind::LocalCheckpointDone);
  EXPECT_DOUBLE_EQ(events[1].time, 2.0);
  EXPECT_EQ(events[2].kind, TraceKind::RemoteExchangeDone);
  EXPECT_DOUBLE_EQ(events[2].time, 36.0);
  EXPECT_EQ(events.back().kind, TraceKind::ApplicationDone);
}

TEST(TraceTest, TripleCommitsAfterPartOne) {
  const auto config = make_config(Protocol::Triple, 100.0, 98.0);
  Trace trace(true);
  run_scripted(config, {}, &trace);
  const auto& events = trace.events();
  ASSERT_GE(events.size(), 3u);
  EXPECT_EQ(events[1].kind, TraceKind::PreferredCopyDone);
  EXPECT_DOUBLE_EQ(events[1].time, 34.0);
}

TEST(TraceTest, FailurePathEvents) {
  const auto config = make_config(Protocol::DoubleNbl, 100.0, 97.0);
  Trace trace(true);
  run_scripted(config, {{50.0, 0}}, &trace);
  std::vector<TraceKind> kinds;
  for (const auto& event : trace.events()) kinds.push_back(event.kind);
  // Failure, rollback, recovery end, re-execution end must appear in order.
  auto find = [&](TraceKind kind) {
    return std::find(kinds.begin(), kinds.end(), kind);
  };
  auto failure = find(TraceKind::Failure);
  auto rollback = find(TraceKind::Rollback);
  auto recovery = find(TraceKind::RecoveryEnd);
  auto reexec = find(TraceKind::ReexecutionEnd);
  ASSERT_NE(failure, kinds.end());
  ASSERT_NE(rollback, kinds.end());
  ASSERT_NE(recovery, kinds.end());
  ASSERT_NE(reexec, kinds.end());
  EXPECT_LT(failure, rollback);
  EXPECT_LT(rollback, recovery);
  EXPECT_LT(recovery, reexec);
}

TEST(TraceTest, DisabledTraceRecordsNothing) {
  Trace trace(false);
  trace.record(1.0, TraceKind::Failure, 0, 0.0);
  EXPECT_TRUE(trace.events().empty());
}

TEST(TraceTest, EveryKindHasItsOwnLabel) {
  // TraceKind counts up from 0 and is extended at the end only.
  const int kinds = static_cast<int>(TraceKind::ProactiveCommit) + 1;
  std::set<std::string> labels;
  for (int k = 0; k < kinds; ++k) {
    const std::string label = trace_kind_name(static_cast<TraceKind>(k));
    EXPECT_NE(label, "?") << "kind " << k;
    labels.insert(label);
  }
  EXPECT_EQ(labels.size(), static_cast<std::size_t>(kinds));
}

TEST(TraceTest, RenderPrintsOneLinePerEvent) {
  Trace trace(true);
  trace.record(1.5, TraceKind::Failure, 5, 0.25);
  trace.record(12.0, TraceKind::Rollback, 5, 0.0);
  trace.record(40.0, TraceKind::ApplicationDone, 0, 100.0);
  const std::string text = trace.render();
  std::string expected;
  for (const TraceEvent& event : trace.events()) {
    expected += event.to_string() + "\n";
  }
  EXPECT_EQ(text, expected);
  const std::string first = trace.events().front().to_string();
  EXPECT_NE(first.find("t=       1.500"), std::string::npos) << first;
  EXPECT_NE(first.find("failure"), std::string::npos) << first;
  EXPECT_NE(first.find("node=5"), std::string::npos) << first;
  EXPECT_NE(first.find("work=0.250"), std::string::npos) << first;
  EXPECT_EQ(Trace(false).render(), "");
}

// ------------------------------------------------------------- edge cases

TEST(EdgeCaseTest, DivergenceGuardTriggers) {
  auto config = make_config(Protocol::DoubleNbl, 100.0, 1e6);
  config.params.mtbf = 1.0;  // a failure every second: no progress possible
  config.max_makespan = 5000.0;
  config.stop_on_fatal = false;
  const auto result = simulate_exponential(config, 42);
  EXPECT_TRUE(result.diverged);
}

TEST(EdgeCaseTest, ValidationRejectsBadConfigs) {
  auto config = make_config(Protocol::DoubleNbl, 100.0, 97.0);
  config.period = 10.0;  // below min_period = 36
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = make_config(Protocol::Triple, 100.0, 0.0);
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = make_config(Protocol::Triple, 100.0, 97.0);
  config.params.nodes = 4;  // not divisible by 3
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(EdgeCaseTest, NullInjectorRejected) {
  const auto config = make_config(Protocol::DoubleNbl, 100.0, 97.0);
  EXPECT_THROW(ProtocolSimulation(config, nullptr), std::invalid_argument);
}

TEST(EdgeCaseTest, InjectorNodeCountMismatchRejected) {
  const auto config = make_config(Protocol::DoubleNbl, 100.0, 97.0);
  EXPECT_THROW(ProtocolSimulation(
                   config, std::make_unique<ScriptedInjector>(
                               std::vector<FailureEvent>{}, 4)),
               std::invalid_argument);
}

TEST(EdgeCaseTest, FailureExactlyAtCommitBoundary) {
  // A failure at the precise end of part 2 (t = 36): the phase-transition
  // commit at 36 must win (events strictly *before* the boundary interrupt,
  // the boundary itself belongs to the completed exchange), so only the
  // sigma work since commit is lost.
  const auto config = make_config(Protocol::DoubleNbl, 100.0, 97.0);
  const auto result = run_scripted(config, {{36.0, 0}});
  EXPECT_EQ(result.failures, 1u);
  // committed = 0 snapshot at t = 36... the snapshot captured work level 0
  // (period-1 start), so rollback to 0 and deficit = 33 either way; the
  // distinguishing observable is the makespan:
  // 36 + R(4) + reexec(34 @33/34 = 34) + remaining part3 (64) = 138.
  EXPECT_NEAR(result.makespan, 36.0 + 4.0 + 34.0 + 64.0, 1e-6);
}

TEST(EdgeCaseTest, TripleWithZeroSigma) {
  // P = 2 theta exactly: the period has no full-speed part. phi=1 -> theta
  // = 34, P = 68, W = 66 per period.
  const auto config = make_config(Protocol::Triple, 68.0, 660.0);
  const auto result = run_scripted(config, {});
  EXPECT_NEAR(result.makespan, 680.0, 1e-6);
  EXPECT_NEAR(result.waste(), 2.0 / 68.0, 1e-9);
}

TEST(EdgeCaseTest, BackToBackFailuresDifferentNodes) {
  // Two failures 0.5 s apart in different pairs: the second strikes during
  // the first's downtime-free recovery; repair restarts, deficit unchanged.
  const auto config = make_config(Protocol::DoubleNbl, 100.0, 97.0);
  const auto result = run_scripted(config, {{50.0, 0}, {50.5, 4}});
  EXPECT_EQ(result.failures, 2u);
  EXPECT_FALSE(result.fatal);
  // Second failure at 50.5 (during recovery of the first): restart
  // recovery; repair = 4 + 48 from t=50.5, then 50 s of part 3 remain.
  EXPECT_NEAR(result.makespan, 50.5 + 4.0 + 48.0 + 50.0, 1e-6);
}

TEST(EdgeCaseTest, FailureDuringReexecutionDoublesTheBill) {
  const auto config = make_config(Protocol::DoubleNbl, 100.0, 97.0);
  // First failure at 50; reexec runs [54, 102); second failure at 80
  // rolls work back to 0 again with the same pre-failure target (47).
  const auto result = run_scripted(config, {{50.0, 0}, {80.0, 2}});
  EXPECT_EQ(result.failures, 2u);
  // Timeline: 80 + 4 (R) + 48 (full reexec again) + 50 (rest of part 3).
  EXPECT_NEAR(result.makespan, 80.0 + 4.0 + 48.0 + 50.0, 1e-6);
  EXPECT_NEAR(result.time_recovering, 8.0, 1e-9);
}

TEST(EdgeCaseTest, TraceAndExponentialInjectorsAgreeOnSchedule) {
  // Feeding the exponential injector's exact failure times through a
  // ScriptedInjector must reproduce the same makespan.
  auto config = make_config(Protocol::DoubleNbl, 100.0, 2000.0);
  config.params.mtbf = 700.0;
  Trace trace(true);
  const auto direct = simulate_exponential(config, 99, &trace);
  std::vector<FailureEvent> events;
  for (const auto& event : trace.events()) {
    if (event.kind == TraceKind::Failure) {
      events.push_back({event.time, event.node});
    }
  }
  const auto replayed = run_scripted(config, events);
  EXPECT_EQ(replayed.failures, direct.failures);
  EXPECT_NEAR(replayed.makespan, direct.makespan, 1e-6);
}

TEST(EdgeCaseTest, ZeroDowntimeAndImmediateChains) {
  // D = 0 with a failure in part 1 (no work done yet in this period).
  const auto config = make_config(Protocol::DoubleNbl, 100.0, 97.0);
  const auto result = run_scripted(config, {{1.0, 0}});
  EXPECT_EQ(result.failures, 1u);
  // Nothing to re-execute (work == committed == 0): cost is D + R = 4 s on
  // top of the fault-free 100 s period.
  EXPECT_NEAR(result.makespan, 104.0, 1e-6);
}

// ---------------------------------------------------------- silent errors

TEST(SilentErrorTest, ValidationRejectsBadSdcConfigs) {
  auto config = make_config(Protocol::DoubleNbl, 100.0, 97.0);
  config.sdc.rate = 1e-3;  // strikes without any verification: undetectable
  config.sdc.verify_every = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = make_config(Protocol::DoubleNbl, 100.0, 97.0);
  config.sdc.rate = -1.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = make_config(Protocol::DoubleNbl, 100.0, 97.0);
  config.sdc.rate = std::numeric_limits<double>::infinity();
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = make_config(Protocol::DoubleNbl, 100.0, 97.0);
  config.sdc.verify_cost = -0.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = make_config(Protocol::DoubleNbl, 100.0, 97.0);
  config.keep_last = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  // Verification without strikes is a legal (pure-overhead) configuration.
  config = make_config(Protocol::DoubleNbl, 100.0, 97.0);
  config.sdc.verify_cost = 1.0;
  config.sdc.verify_every = 2;
  EXPECT_NO_THROW(config.validate());
}

TEST(SilentErrorTest, VerificationCostAccountedExactly) {
  // sdc_rate = 0, V = 3, k = 2 on a fault-free run: verification is pure
  // blocking overhead. t_base = 450 spans periods 1-4 fully (work 388) plus
  // 62 units into period 5, so verifications fire after periods 2 and 4.
  // Makespan = 4*100 + 2*3 (verify) + 2 (part1) + 34 (part2) + 29 (part3).
  auto config = make_config(Protocol::DoubleNbl, 100.0, 450.0);
  config.sdc.verify_cost = 3.0;
  config.sdc.verify_every = 2;
  config.keep_last = 2;
  const auto result = run_scripted(config, {});
  EXPECT_EQ(result.verifications_run, 2u);
  EXPECT_NEAR(result.time_verifying, 6.0, 1e-9);
  EXPECT_NEAR(result.makespan, 400.0 + 6.0 + 2.0 + 34.0 + 29.0, 1e-6);
  EXPECT_EQ(result.sdc_injected, 0u);
  EXPECT_EQ(result.sdc_detected, 0u);
  EXPECT_EQ(result.rollback_depth, 0u);
  EXPECT_FALSE(result.fatal);
}

TEST(SilentErrorTest, VerificationSkippedWhenDisabled) {
  auto config = make_config(Protocol::DoubleNbl, 100.0, 450.0);
  config.sdc.verify_cost = 3.0;  // cost configured but k = 0 disables the phase
  config.sdc.verify_every = 0;
  const auto result = run_scripted(config, {});
  EXPECT_EQ(result.verifications_run, 0u);
  EXPECT_NEAR(result.time_verifying, 0.0, 1e-12);
}

TEST(SilentErrorTest, CounterInvariantsUnderExponentialCampaign) {
  // Hot platform with strikes enabled: every counter relationship the
  // aggregates rely on must hold trial by trial.
  auto config = make_config(Protocol::DoubleNbl, 100.0, 4000.0);
  config.params.mtbf = 500.0;
  config.stop_on_fatal = false;
  config.sdc.rate = 1.0 / 300.0;
  config.sdc.verify_cost = 0.5;
  config.sdc.verify_every = 2;
  config.keep_last = 3;
  bool saw_detection = false;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const auto result = simulate_exponential(config, seed);
    EXPECT_LE(result.sdc_detected, result.verifications_run)
        << "seed " << seed;
    // Each completed verification blocked for exactly V; interrupted ones
    // only add time, so the total is bounded below by count * V.
    EXPECT_GE(result.time_verifying + 1e-9,
              static_cast<double>(result.verifications_run) *
                  config.sdc.verify_cost)
        << "seed " << seed;
    if (result.sdc_detected > 0) saw_detection = true;
    if (!result.diverged) {
      EXPECT_GE(result.makespan, result.t_base) << "seed " << seed;
    }
  }
  EXPECT_TRUE(saw_detection)
      << "campaign too quiet to exercise the detection path";
}

TEST(SilentErrorTest, StrikeStreamIsDeterministicPerSeed) {
  auto config = make_config(Protocol::DoubleNbl, 100.0, 2000.0);
  config.params.mtbf = 800.0;
  config.stop_on_fatal = false;
  config.sdc.rate = 1.0 / 250.0;
  config.sdc.verify_cost = 1.0;
  config.sdc.verify_every = 3;
  config.keep_last = 2;
  const auto a = simulate_exponential(config, 7);
  const auto b = simulate_exponential(config, 7);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.sdc_injected, b.sdc_injected);
  EXPECT_EQ(a.sdc_detected, b.sdc_detected);
  EXPECT_EQ(a.rollback_depth, b.rollback_depth);
  const auto c = simulate_exponential(config, 8);
  EXPECT_TRUE(a.sdc_injected != c.sdc_injected || a.makespan != c.makespan)
      << "distinct seeds produced identical strike histories";
}

}  // namespace
