#include "sim/risk_tracker.hpp"

#include <gtest/gtest.h>

namespace {

using dckpt::sim::RiskTracker;

TEST(RiskTrackerPairTest, BuddyFailureInsideWindowIsFatal) {
  RiskTracker tracker(8, 2);
  EXPECT_FALSE(tracker.on_failure(0, 100.0, 10.0));
  EXPECT_TRUE(tracker.on_failure(1, 105.0, 10.0));
}

TEST(RiskTrackerPairTest, BuddyFailureAfterExpiryIsSafe) {
  RiskTracker tracker(8, 2);
  EXPECT_FALSE(tracker.on_failure(0, 100.0, 10.0));
  EXPECT_FALSE(tracker.on_failure(1, 110.0, 10.0));  // window closed at 110
}

TEST(RiskTrackerPairTest, UnrelatedGroupIsSafe) {
  RiskTracker tracker(8, 2);
  EXPECT_FALSE(tracker.on_failure(0, 100.0, 10.0));
  EXPECT_FALSE(tracker.on_failure(2, 101.0, 10.0));  // different pair
  EXPECT_FALSE(tracker.on_failure(5, 102.0, 10.0));
}

TEST(RiskTrackerPairTest, SameNodeRepeatedFailureIsNotFatal) {
  RiskTracker tracker(4, 2);
  EXPECT_FALSE(tracker.on_failure(0, 100.0, 10.0));
  // The replacement of node 0 fails again: only node 0's data was at risk,
  // the buddy still holds every copy -- not fatal, window refreshed.
  EXPECT_FALSE(tracker.on_failure(0, 104.0, 10.0));
  // Buddy failing within the refreshed window is fatal.
  EXPECT_TRUE(tracker.on_failure(1, 113.0, 10.0));
}

TEST(RiskTrackerPairTest, WindowRefreshExtendsExposure) {
  RiskTracker tracker(4, 2);
  EXPECT_FALSE(tracker.on_failure(0, 100.0, 10.0));
  EXPECT_FALSE(tracker.on_failure(0, 109.0, 10.0));  // refresh to 119
  EXPECT_TRUE(tracker.on_failure(1, 115.0, 10.0));
}

TEST(RiskTrackerTripleTest, ThreeFailuresCascadeToFatal) {
  RiskTracker tracker(9, 3);
  EXPECT_FALSE(tracker.on_failure(3, 100.0, 20.0));  // group 1 member 0
  EXPECT_FALSE(tracker.on_failure(4, 105.0, 20.0));  // second member exposed
  EXPECT_TRUE(tracker.on_failure(5, 110.0, 20.0));   // last copy gone
}

TEST(RiskTrackerTripleTest, TwoFailuresAreSurvivable) {
  RiskTracker tracker(9, 3);
  EXPECT_FALSE(tracker.on_failure(0, 100.0, 20.0));
  EXPECT_FALSE(tracker.on_failure(1, 105.0, 20.0));
  // Third member fails after both windows expired: safe.
  EXPECT_FALSE(tracker.on_failure(2, 200.0, 20.0));
}

TEST(RiskTrackerTripleTest, StaggeredWindowsOnlyCountOpenOnes) {
  RiskTracker tracker(3, 3);
  EXPECT_FALSE(tracker.on_failure(0, 100.0, 10.0));  // open till 110
  EXPECT_FALSE(tracker.on_failure(1, 109.0, 10.0));  // open till 119
  // At t=112 node 0's window expired; only node 1 exposed -> not fatal.
  EXPECT_FALSE(tracker.on_failure(2, 112.0, 10.0));
}

TEST(RiskTrackerTripleTest, ThirdFailureOfSameMemberIsSafe) {
  RiskTracker tracker(3, 3);
  EXPECT_FALSE(tracker.on_failure(0, 100.0, 50.0));
  EXPECT_FALSE(tracker.on_failure(1, 101.0, 50.0));
  // Replacement of member 0 fails again: still one live member with data.
  EXPECT_FALSE(tracker.on_failure(0, 102.0, 50.0));
  // But the last member failing now is fatal.
  EXPECT_TRUE(tracker.on_failure(2, 103.0, 50.0));
}

TEST(RiskTrackerTest, GroupMapping) {
  RiskTracker pairs(8, 2);
  EXPECT_EQ(pairs.group_of(0), 0u);
  EXPECT_EQ(pairs.group_of(1), 0u);
  EXPECT_EQ(pairs.group_of(7), 3u);
  RiskTracker triples(9, 3);
  EXPECT_EQ(triples.group_of(5), 1u);
  EXPECT_EQ(triples.group_of(6), 2u);
}

TEST(RiskTrackerTest, Validation) {
  EXPECT_THROW(RiskTracker(8, 4), std::invalid_argument);
  EXPECT_THROW(RiskTracker(7, 2), std::invalid_argument);
  EXPECT_THROW(RiskTracker(0, 2), std::invalid_argument);
  RiskTracker tracker(4, 2);
  EXPECT_THROW(tracker.on_failure(4, 0.0, 1.0), std::out_of_range);
}

}  // namespace
