#include "util/math.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace {

using namespace dckpt::util;

TEST(GoldenSectionTest, FindsParabolaMinimum) {
  const auto result = minimize_golden_section(
      [](double x) { return (x - 3.0) * (x - 3.0) + 2.0; }, -10.0, 10.0);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.x, 3.0, 1e-6);
  EXPECT_NEAR(result.value, 2.0, 1e-10);
}

TEST(GoldenSectionTest, BoundaryMinimum) {
  const auto result =
      minimize_golden_section([](double x) { return x; }, 1.0, 5.0);
  EXPECT_NEAR(result.x, 1.0, 1e-6);
}

TEST(GoldenSectionTest, RejectsEmptyInterval) {
  EXPECT_THROW(minimize_golden_section([](double x) { return x; }, 2.0, 1.0),
               std::invalid_argument);
}

TEST(BrentMinimizeTest, FindsParabolaMinimumFast) {
  const auto result = minimize_brent(
      [](double x) { return (x - 1.25) * (x - 1.25); }, -4.0, 4.0);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.x, 1.25, 1e-7);
  EXPECT_LT(result.iterations, 60);
}

TEST(BrentMinimizeTest, NonSmoothUnimodal) {
  const auto result =
      minimize_brent([](double x) { return std::abs(x - 0.7); }, -2.0, 3.0);
  EXPECT_NEAR(result.x, 0.7, 1e-6);
}

TEST(BrentMinimizeTest, WasteShapedObjective) {
  // c1/P + c2*P is the skeleton of the checkpoint waste; min at sqrt(c1/c2).
  const double c1 = 12.0, c2 = 0.5;
  const auto result = minimize_brent(
      [&](double p) { return c1 / p + c2 * p; }, 0.01, 100.0);
  EXPECT_NEAR(result.x, std::sqrt(c1 / c2), 1e-5);
}

TEST(BisectionTest, FindsRoot) {
  const auto result = find_root_bisection(
      [](double x) { return x * x - 2.0; }, 0.0, 2.0);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.x, std::sqrt(2.0), 1e-9);
}

TEST(BisectionTest, ExactEndpointRoot) {
  const auto result =
      find_root_bisection([](double x) { return x; }, 0.0, 1.0);
  EXPECT_TRUE(result.converged);
  EXPECT_DOUBLE_EQ(result.x, 0.0);
}

TEST(BisectionTest, RejectsSameSign) {
  EXPECT_THROW(find_root_bisection([](double x) { return x * x + 1.0; }, -1.0,
                                   1.0),
               std::invalid_argument);
}

TEST(KahanSumTest, CompensatesSmallAdditions) {
  KahanSum sum;
  sum.add(1e16);
  for (int i = 0; i < 10000; ++i) sum.add(1.0);
  sum.add(-1e16);
  EXPECT_DOUBLE_EQ(sum.value(), 10000.0);
}

TEST(KahanSumTest, OperatorPlusEquals) {
  KahanSum sum;
  sum += 1.5;
  sum += 2.5;
  EXPECT_DOUBLE_EQ(sum.value(), 4.0);
}

TEST(ClampTest, Basics) {
  EXPECT_DOUBLE_EQ(clamp(5.0, 0.0, 3.0), 3.0);
  EXPECT_DOUBLE_EQ(clamp(-1.0, 0.0, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(clamp(2.0, 0.0, 3.0), 2.0);
}

TEST(LogSpaceTest, EndpointsAndMonotonicity) {
  const auto grid = log_space(1.0, 1000.0, 4);
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_NEAR(grid.front(), 1.0, 1e-12);
  EXPECT_NEAR(grid.back(), 1000.0, 1e-9);
  EXPECT_NEAR(grid[1], 10.0, 1e-9);
  for (std::size_t i = 1; i < grid.size(); ++i) EXPECT_GT(grid[i], grid[i - 1]);
}

TEST(LogSpaceTest, SinglePointAndErrors) {
  EXPECT_EQ(log_space(2.0, 8.0, 1).size(), 1u);
  EXPECT_THROW(log_space(0.0, 1.0, 3), std::invalid_argument);
  EXPECT_THROW(log_space(1.0, 0.5, 3), std::invalid_argument);
  EXPECT_THROW(log_space(1.0, 2.0, 0), std::invalid_argument);
}

TEST(LerpTest, Basics) {
  EXPECT_DOUBLE_EQ(lerp(2.0, 4.0, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(lerp(2.0, 4.0, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(lerp(2.0, 4.0, 1.0), 4.0);
}

}  // namespace
