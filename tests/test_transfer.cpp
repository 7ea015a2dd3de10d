#include "ckpt/transfer.hpp"

#include <gtest/gtest.h>

namespace {

using namespace dckpt::ckpt;

// ------------------------------------------- retry policy (re-replication)

TEST(RetryPolicyTest, ValidateRejectsZeroAttempts) {
  RetryPolicy policy;
  EXPECT_NO_THROW(policy.validate());
  policy.max_attempts = 0;
  EXPECT_THROW(policy.validate(), std::invalid_argument);
}

TEST(RetryPolicyTest, BackoffDoublesFromTheBase) {
  const RetryPolicy policy{/*max_attempts=*/5, /*base_delay_steps=*/2};
  EXPECT_EQ(policy.backoff_steps(1), 2u);
  EXPECT_EQ(policy.backoff_steps(2), 4u);
  EXPECT_EQ(policy.backoff_steps(3), 8u);
  EXPECT_THROW(policy.backoff_steps(0), std::invalid_argument);
}

TEST(RetryPolicyTest, BackoffNeverWaitsZeroSteps) {
  // A re-issued transfer cannot land inside the step that saw it fail.
  const RetryPolicy policy{/*max_attempts=*/3, /*base_delay_steps=*/0};
  EXPECT_EQ(policy.backoff_steps(1), 1u);
  EXPECT_EQ(policy.backoff_steps(2), 1u);
}

TEST(RetryPolicyTest, BackoffSaturatesInsteadOfOverflowing) {
  const RetryPolicy policy{/*max_attempts=*/100, /*base_delay_steps=*/3};
  EXPECT_EQ(policy.backoff_steps(65), ~std::uint64_t{0});  // shift >= 64
  EXPECT_EQ(policy.backoff_steps(64), ~std::uint64_t{0});  // 3 << 63 overflows
  EXPECT_EQ(policy.backoff_steps(63), std::uint64_t{3} << 62);  // still exact
}

}  // namespace
