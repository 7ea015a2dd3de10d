// Minimal property-test harness for gtest: seeded generators, a
// forall-with-shrinking driver, and failure-seed reporting.
//
// Every iteration draws its value from an independent split of the root
// seed, so a reported failure reproduces in isolation:
//
//   proptest::ForallConfig config;            // seed + iteration count
//   proptest::forall(config, draw, property, shrink, show);
//
//   draw(Gen&)            -> Value            (seeded generator)
//   property(const Value&)-> std::optional<std::string>  (nullopt = holds,
//                            message = why it failed)
//   shrink(const Value&)  -> std::vector<Value>   (smaller candidates; {}
//                            stops shrinking; optional)
//   show(const Value&)    -> std::string          (for the failure report)
//
// On failure the driver greedily walks to a local minimum -- repeatedly
// re-testing shrink candidates and descending into the first one that still
// fails -- then reports seed, iteration and the shrunk counterexample
// through ADD_FAILURE(), so the gtest output alone is enough to replay:
// rerun with ForallConfig{seed, iteration + 1} and only the reported
// iteration's stream reaches the property.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace proptest {

/// Seeded draw context handed to generators. Thin sugar over the repo's
/// Xoshiro256ss so generators compose by just passing `Gen&` around.
class Gen {
 public:
  explicit Gen(std::uint64_t seed) : rng_(seed) {}

  dckpt::util::Xoshiro256ss& rng() noexcept { return rng_; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * rng_.next_double();
  }

  /// Log-uniform double in [lo, hi), lo > 0: every decade equally likely.
  /// The natural draw for scale parameters (MTBFs, costs, periods).
  double log_uniform(double lo, double hi) {
    return lo * std::exp(rng_.next_double() * std::log(hi / lo));
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t integer(std::uint64_t lo, std::uint64_t hi) {
    return lo + rng_.next_below(hi - lo + 1);
  }

  bool boolean() { return rng_.next_below(2) == 1; }

  /// Uniformly picked element of a non-empty list.
  template <typename T>
  T element(const std::vector<T>& choices) {
    return choices[rng_.next_below(choices.size())];
  }

 private:
  dckpt::util::Xoshiro256ss rng_;
};

struct ForallConfig {
  std::uint64_t seed = 0x5eed;
  std::uint64_t iterations = 200;
  std::uint64_t max_shrink_rounds = 64;  ///< greedy descent bound
};

/// Derives the independent generator seed for one iteration; exposed so a
/// test can replay exactly the reported failing draw.
inline std::uint64_t iteration_seed(std::uint64_t root_seed,
                                    std::uint64_t iteration) {
  // SplitMix64 over (seed, index): decorrelates neighbouring iterations.
  dckpt::util::SplitMix64 mix(root_seed ^
                              (iteration * 0x9e3779b97f4a7c15ULL));
  return mix.next();
}

template <typename Value>
using Property = std::function<std::optional<std::string>(const Value&)>;

template <typename Value>
using Shrinker = std::function<std::vector<Value>(const Value&)>;

template <typename Value>
using Show = std::function<std::string(const Value&)>;

/// Checks `property` on `config.iterations` generated values. Returns true
/// when every iteration held; reports the (shrunk) counterexample through
/// ADD_FAILURE() otherwise.
template <typename Value>
bool forall(const ForallConfig& config,
            const std::function<Value(Gen&)>& draw,
            const Property<Value>& property,
            const Shrinker<Value>& shrink = nullptr,
            const Show<Value>& show = nullptr) {
  for (std::uint64_t i = 0; i < config.iterations; ++i) {
    Gen gen(iteration_seed(config.seed, i));
    Value value = draw(gen);
    std::optional<std::string> failure = property(value);
    if (!failure) continue;

    std::uint64_t shrink_steps = 0;
    if (shrink) {
      // Greedy descent: take the first still-failing candidate each round.
      for (std::uint64_t round = 0;
           round < config.max_shrink_rounds; ++round) {
        bool descended = false;
        for (Value& candidate : shrink(value)) {
          if (auto candidate_failure = property(candidate)) {
            value = std::move(candidate);
            failure = std::move(candidate_failure);
            ++shrink_steps;
            descended = true;
            break;
          }
        }
        if (!descended) break;
      }
    }

    std::string report = "property failed at iteration " +
                         std::to_string(i) + " (seed " +
                         std::to_string(config.seed) + ", iteration seed " +
                         std::to_string(iteration_seed(config.seed, i)) +
                         ")";
    if (shrink_steps > 0) {
      report += " after " + std::to_string(shrink_steps) + " shrink steps";
    }
    report += ": " + *failure;
    if (show) report += "\n  counterexample: " + show(value);
    ADD_FAILURE() << report;
    return false;
  }
  return true;
}

/// Shrink-by-halving helpers: candidates move half the remaining distance
/// toward `target`, so the descent terminates at a near-minimal failure.
inline std::vector<double> halve_toward(double value, double target) {
  if (value == target) return {};
  std::vector<double> candidates{target};
  const double mid = target + (value - target) / 2.0;
  if (mid != value && mid != target) candidates.push_back(mid);
  return candidates;
}

inline std::vector<std::uint64_t> halve_toward(std::uint64_t value,
                                               std::uint64_t target) {
  if (value == target) return {};
  std::vector<std::uint64_t> candidates{target};
  const std::uint64_t mid = value > target
                                ? target + (value - target) / 2
                                : target - (target - value) / 2;
  if (mid != value && mid != target) candidates.push_back(mid);
  return candidates;
}

/// The hostile-number corpus every input boundary is tested against: CLI
/// getters, serve requests, chaos schedules and failure traces.
inline const std::vector<std::string>& hostile_number_tokens() {
  static const std::vector<std::string> tokens = {
      "nan",                        // non-finite
      "inf",                        // non-finite
      "-inf",                       // non-finite
      "-1",                         // a sign on a count
      "1e400",                      // past every floating type
      "900x",                       // trailing junk
      "",                           // empty
      "+5",                         // a leading plus
      " 5",                         // a leading blank
      "0x10",                       // hex
      "1,5",                        // a list where one number is due
      "1234567890123456789012345",  // past every integer type
  };
  return tokens;
}

/// forall over a fixed corpus: every token exactly once, in order (the
/// draw ignores its generator). A failure reports the token.
inline bool forall_tokens(const std::vector<std::string>& tokens,
                          const Property<std::string>& property) {
  std::size_t next = 0;
  const std::function<std::string(Gen&)> draw = [&](Gen&) {
    return tokens[next++];
  };
  const Show<std::string> show = [](const std::string& token) {
    return "'" + token + "'";
  };
  return forall<std::string>(ForallConfig{0, tokens.size()}, draw, property,
                             nullptr, show);
}

}  // namespace proptest
