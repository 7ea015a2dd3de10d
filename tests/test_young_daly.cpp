#include "model/young_daly.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace {

using namespace dckpt::model;

CentralizedParams make_params() {
  CentralizedParams p;
  p.checkpoint = 600.0;  // global footprint to stable storage: minutes
  p.recovery = 600.0;
  p.downtime = 60.0;
  p.mtbf = 86400.0;
  return p;
}

TEST(YoungDalyTest, DalyFormula) {
  const auto p = make_params();
  EXPECT_NEAR(daly_period(p),
              std::sqrt(2.0 * (86400.0 + 660.0) * 600.0) + 600.0, 1e-9);
}

TEST(YoungDalyTest, DalyRefinementExceedsYoung) {
  const auto p = make_params();
  // Young's first-order period: sqrt(2 M C) + C.
  const double young = std::sqrt(2.0 * p.mtbf * p.checkpoint) + p.checkpoint;
  EXPECT_GT(daly_period(p), young);
}

TEST(YoungDalyTest, DalyReducesToYoungWithoutDowntimeOrRecovery) {
  // Daly's refinement charges the downtime and recovery of each failure:
  // without them the period is Young's sqrt(2 M C) + C, and it grows with
  // either.
  auto p = make_params();
  p.downtime = 0.0;
  p.recovery = 0.0;
  EXPECT_NEAR(daly_period(p),
              std::sqrt(2.0 * p.mtbf * p.checkpoint) + p.checkpoint, 1e-9);
  double previous = daly_period(p);
  for (const double recovery : {60.0, 600.0, 6000.0}) {
    p.recovery = recovery;
    EXPECT_GT(daly_period(p), previous) << "R = " << recovery;
    previous = daly_period(p);
  }
  p.downtime = 60.0;
  EXPECT_GT(daly_period(p), previous);
}

TEST(YoungDalyTest, FailureCost) {
  const auto p = make_params();
  EXPECT_DOUBLE_EQ(centralized_failure_cost(p, 1000.0),
                   60.0 + 600.0 + 500.0);
}

TEST(YoungDalyTest, WasteCompositionAndBounds) {
  const auto p = make_params();
  const double period = daly_period(p);
  const double w = centralized_waste(p, period);
  EXPECT_GT(w, 0.0);
  EXPECT_LT(w, 1.0);
  const double ff = p.checkpoint / period;
  const double fail = centralized_failure_cost(p, period) / p.mtbf;
  EXPECT_NEAR(w, 1.0 - (1.0 - fail) * (1.0 - ff), 1e-12);
}

TEST(YoungDalyTest, WasteAtOptimumIsNearStationary) {
  const auto p = make_params();
  const double opt = daly_period(p);
  const double at = centralized_waste(p, opt);
  // First-order optimum: nearby periods are not substantially better.
  EXPECT_LE(at, centralized_waste(p, opt * 0.8) + 1e-3);
  EXPECT_LE(at, centralized_waste(p, opt * 1.2) + 1e-3);
}

TEST(YoungDalyTest, SaturatesToOneAtTinyMtbf) {
  auto p = make_params();
  p.mtbf = 100.0;  // far below the checkpoint time
  EXPECT_DOUBLE_EQ(centralized_waste(p, p.checkpoint), 1.0);
}

TEST(YoungDalyTest, Validation) {
  auto p = make_params();
  p.checkpoint = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = make_params();
  p.mtbf = -1.0;
  EXPECT_THROW(daly_period(p), std::invalid_argument);
  p = make_params();
  EXPECT_THROW(centralized_waste(p, 10.0), std::invalid_argument);
  EXPECT_THROW(centralized_failure_cost(p, 0.0), std::invalid_argument);
  EXPECT_THROW(centralized_failure_cost(p, -1.0), std::invalid_argument);
  EXPECT_THROW(centralized_failure_cost(p, std::nan("")),
               std::invalid_argument);
}

TEST(YoungDalyTest, BuddyCheckpointingBeatsCentralizedAtScale) {
  // The paper's motivation: at scale, delta_local << C_global, so the
  // distributed protocols get far smaller waste. Model a 1000-node machine
  // whose global checkpoint is 500x a local one.
  CentralizedParams central;
  central.checkpoint = 1000.0;
  central.recovery = 1000.0;
  central.downtime = 60.0;
  central.mtbf = 3600.0;
  const double centralized = centralized_waste(
      central, std::max(daly_period(central), central.checkpoint));
  EXPECT_GT(centralized, 0.5);  // unusable regime
}

}  // namespace
