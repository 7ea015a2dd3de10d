// Deterministic pseudo-random number generation.
//
// Monte-Carlo experiments must be reproducible across runs and across
// parallel trial execution. We therefore implement our own small PRNG stack
// rather than relying on implementation-defined std:: distributions:
//
//  * SplitMix64   -- seed expander (Steele, Lea, Flood 2014).
//  * Xoshiro256ss -- xoshiro256** 1.0 (Blackman & Vigna 2018), the workhorse
//                    generator; 2^256-1 period, passes BigCrush.
//
// Parallel trials get their streams by seed mixing: trial k seeds a
// generator with `seed ^ (golden-ratio constant * (k + 1))`, which
// the constructor expands through SplitMix64 (sim/runner.cpp). Both engines
// seed each further per-trial purpose (silent errors, predictions, false
// alarms) with that seed xor a fixed salt (sim/engine_geometry.hpp). Trial
// k thus draws the same streams at any chunking or thread count.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace dckpt::util {

/// Seed expander: turns one 64-bit seed into a stream of well-mixed words.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0. Satisfies std::uniform_random_bit_generator.
class Xoshiro256ss {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words through SplitMix64 (never all-zero).
  explicit Xoshiro256ss(std::uint64_t seed = 0x1dea5ea5edULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) using the top 53 bits.
  double next_double() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in (0, 1] -- safe as log() argument.
  double next_double_open_zero() noexcept {
    return (static_cast<double>((*this)() >> 11) + 1.0) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Bulk generation: writes the next `n` raw draws into `out`, exactly the
  /// words `n` calls of operator()() would return. Hoists the state into
  /// locals so wide fills pipeline instead of round-tripping through memory
  /// per draw -- the batched simulator pre-samples variate blocks with this.
  void fill(std::uint64_t* out, std::size_t n) noexcept;

  bool operator==(const Xoshiro256ss&) const noexcept = default;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace dckpt::util
