#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace {

using dckpt::util::SplitMix64;
using dckpt::util::Xoshiro256ss;

TEST(SplitMix64Test, KnownSequenceIsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64Test, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() != b.next()) ++differing;
  }
  EXPECT_GE(differing, 60);
}

TEST(Xoshiro256Test, Deterministic) {
  Xoshiro256ss a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256Test, NextDoubleInHalfOpenUnitInterval) {
  Xoshiro256ss rng(7);
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
  }
}

TEST(Xoshiro256Test, NextDoubleOpenZeroNeverReturnsZero) {
  Xoshiro256ss rng(8);
  for (int i = 0; i < 100000; ++i) {
    ASSERT_GT(rng.next_double_open_zero(), 0.0);
    ASSERT_LE(rng.next_double_open_zero(), 1.0);
  }
}

TEST(Xoshiro256Test, MeanOfUniformDoublesIsHalf) {
  Xoshiro256ss rng(9);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(Xoshiro256Test, NextBelowRespectsBound) {
  Xoshiro256ss rng(10);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) ASSERT_LT(rng.next_below(bound), bound);
  }
}

TEST(Xoshiro256Test, NextBelowZeroBoundReturnsZero) {
  Xoshiro256ss rng(10);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Xoshiro256Test, NextBelowIsRoughlyUniform) {
  Xoshiro256ss rng(11);
  constexpr std::uint64_t kBound = 10;
  constexpr int kDraws = 100000;
  std::vector<int> counts(kBound, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.next_below(kBound)];
  for (std::uint64_t v = 0; v < kBound; ++v) {
    EXPECT_NEAR(counts[v], kDraws / kBound, 500) << "value " << v;
  }
}

TEST(Xoshiro256Test, NextBelowRejectsTheOverrepresentedDraws) {
  // For bound = 3 * 2^62 the multiply-shift maps four raw words onto three
  // values, so without rejection every third value would be drawn twice as
  // often (frequency 1/2 instead of 1/3).
  Xoshiro256ss rng(12);
  constexpr std::uint64_t kBound = 3ULL << 62;
  constexpr int kDraws = 30000;
  int multiples_of_three = 0;
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t v = rng.next_below(kBound);
    ASSERT_LT(v, kBound);
    if (v % 3 == 0) ++multiples_of_three;
  }
  EXPECT_NEAR(static_cast<double>(multiples_of_three) / kDraws, 1.0 / 3.0,
              0.02);
}

TEST(Xoshiro256Test, FillMatchesSequentialDraws) {
  Xoshiro256ss a(99), b(99);
  std::vector<std::uint64_t> out(67);  // odd size exercises the tail loop
  a.fill(out.data(), out.size());
  for (const auto word : out) EXPECT_EQ(word, b());
  // fill(.., 0) is a no-op; the stream continues where it left off.
  a.fill(out.data(), 0);
  EXPECT_EQ(a(), b());
  a.fill(out.data(), 3);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], b());
}

TEST(Xoshiro256Test, SatisfiesUniformRandomBitGenerator) {
  static_assert(Xoshiro256ss::min() == 0);
  static_assert(Xoshiro256ss::max() == ~std::uint64_t{0});
  Xoshiro256ss rng(15);
  EXPECT_NE(rng(), rng());
}

}  // namespace
