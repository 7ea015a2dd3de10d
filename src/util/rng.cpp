#include "util/rng.hpp"

namespace dckpt::util {

Xoshiro256ss::Xoshiro256ss(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& word : state_) word = sm.next();
  // All-zero state is the one fixed point of xoshiro; SplitMix64 cannot
  // produce four zero words from any seed, but guard anyway.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 0x9e3779b97f4a7c15ULL;
  }
}

std::uint64_t Xoshiro256ss::next_below(std::uint64_t bound) noexcept {
  if (bound == 0) return 0;
  // Lemire's multiply-shift rejection method: unbiased and branch-light.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

void Xoshiro256ss::fill(std::uint64_t* out, std::size_t n) noexcept {
  std::uint64_t s0 = state_[0];
  std::uint64_t s1 = state_[1];
  std::uint64_t s2 = state_[2];
  std::uint64_t s3 = state_[3];
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = rotl(s1 * 5, 7) * 9;
    const std::uint64_t t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = rotl(s3, 45);
  }
  state_ = {s0, s1, s2, s3};
}

}  // namespace dckpt::util
