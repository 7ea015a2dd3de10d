#include "sim/failure_injector.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "proptest.hpp"
#include "util/stats.hpp"

namespace {

using namespace dckpt::sim;
using dckpt::util::Distribution;
using dckpt::util::Exponential;
using dckpt::util::RunningStats;
using dckpt::util::Weibull;
using dckpt::util::Xoshiro256ss;

TEST(PlatformExponentialTest, TimesAreStrictlyIncreasing) {
  PlatformExponentialInjector injector(10.0, 100, Xoshiro256ss(1));
  double previous = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const auto event = injector.peek();
    EXPECT_GT(event.time, previous);
    previous = event.time;
    injector.pop();
  }
}

TEST(PlatformExponentialTest, PeekIsIdempotent) {
  PlatformExponentialInjector injector(10.0, 100, Xoshiro256ss(2));
  const auto a = injector.peek();
  const auto b = injector.peek();
  EXPECT_DOUBLE_EQ(a.time, b.time);
  EXPECT_EQ(a.node, b.node);
}

TEST(PlatformExponentialTest, InterArrivalMeanMatchesMtbf) {
  const double mtbf = 42.0;
  PlatformExponentialInjector injector(mtbf, 8, Xoshiro256ss(3));
  RunningStats gaps;
  double previous = 0.0;
  for (int i = 0; i < 200000; ++i) {
    const auto event = injector.peek();
    gaps.add(event.time - previous);
    previous = event.time;
    injector.pop();
  }
  EXPECT_NEAR(gaps.mean(), mtbf, 6.0 * gaps.standard_error());
}

TEST(PlatformExponentialTest, NodesAreUniform) {
  constexpr std::uint64_t kNodes = 10;
  PlatformExponentialInjector injector(1.0, kNodes, Xoshiro256ss(4));
  std::vector<int> hits(kNodes, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    ++hits[injector.peek().node];
    injector.pop();
  }
  for (std::uint64_t node = 0; node < kNodes; ++node) {
    EXPECT_NEAR(hits[node], kDraws / kNodes, 600) << "node " << node;
  }
}

TEST(PlatformExponentialTest, ReplacementIsANoop) {
  PlatformExponentialInjector a(5.0, 4, Xoshiro256ss(5));
  PlatformExponentialInjector b(5.0, 4, Xoshiro256ss(5));
  for (int i = 0; i < 100; ++i) {
    const auto ea = a.peek();
    a.pop();
    a.on_node_replaced(ea.node, ea.time, ea.time + 1.0);
    const auto eb = b.peek();
    b.pop();
    EXPECT_DOUBLE_EQ(ea.time, eb.time);
  }
}

TEST(PlatformExponentialTest, RejectsBadConstruction) {
  EXPECT_THROW(PlatformExponentialInjector(0.0, 4, Xoshiro256ss(6)),
               std::invalid_argument);
  EXPECT_THROW(PlatformExponentialInjector(1.0, 0, Xoshiro256ss(6)),
               std::invalid_argument);
}

TEST(PerNodeInjectorTest, TimesAreNonDecreasingAcrossNodes) {
  const auto dist = Exponential::from_mean(100.0);
  PerNodeInjector injector(dist, 16, Xoshiro256ss(7));
  double previous = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const auto event = injector.peek();
    EXPECT_GE(event.time, previous);
    EXPECT_LT(event.node, 16u);
    previous = event.time;
    injector.pop();
  }
}

TEST(PerNodeInjectorTest, ExponentialMatchesPlatformRate) {
  // Superposition: n exponential(mean n*M) streams == platform rate 1/M.
  const double platform_mtbf = 25.0;
  const std::uint64_t n = 32;
  const auto dist =
      Exponential::from_mean(platform_mtbf * static_cast<double>(n));
  PerNodeInjector injector(dist, n, Xoshiro256ss(8));
  RunningStats gaps;
  double previous = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const auto event = injector.peek();
    gaps.add(event.time - previous);
    previous = event.time;
    injector.pop();
  }
  EXPECT_NEAR(gaps.mean(), platform_mtbf, 6.0 * gaps.standard_error());
}

TEST(PerNodeInjectorTest, RebirthReschedulesNode) {
  const auto dist = Exponential::from_mean(50.0);
  PerNodeInjector injector(dist, 4, Xoshiro256ss(9));
  const auto first = injector.peek();
  injector.pop();
  // Replace the failed node far in the future; its next failure must not
  // precede the rebirth time.
  const double rebirth = first.time + 500.0;
  injector.on_node_replaced(first.node, first.time, rebirth);
  for (int i = 0; i < 10000; ++i) {
    const auto event = injector.peek();
    if (event.node == first.node) {
      EXPECT_GT(event.time, rebirth);
      return;
    }
    injector.pop();
  }
  FAIL() << "replaced node never failed again";
}

TEST(PerNodeInjectorTest, WeibullStreamsHaveRequestedMean) {
  const auto dist = Weibull::from_mean(0.7, 500.0);
  PerNodeInjector injector(dist, 1, Xoshiro256ss(10));
  RunningStats gaps;
  double previous = 0.0;
  for (int i = 0; i < 50000; ++i) {
    const auto event = injector.peek();
    gaps.add(event.time - previous);
    previous = event.time;
    injector.pop();
  }
  EXPECT_NEAR(gaps.mean(), 500.0, 6.0 * gaps.standard_error());
}

TEST(PerNodeInjectorTest, RejectsZeroNodes) {
  const auto dist = Exponential::from_mean(1.0);
  EXPECT_THROW(PerNodeInjector(dist, 0, Xoshiro256ss(11)),
               std::invalid_argument);
  EXPECT_THROW(PerNodeInjector({}, Xoshiro256ss(11)), std::invalid_argument);
}

TEST(HeterogeneousInjectorTest, LemonNodeDominatesFailures) {
  // Node 0 has 100x worse MTBF than the other 7: it must account for the
  // overwhelming majority of failures.
  std::vector<std::unique_ptr<dckpt::util::Distribution>> laws;
  laws.push_back(
      std::make_unique<Exponential>(Exponential::from_mean(100.0)));
  for (int i = 0; i < 7; ++i) {
    laws.push_back(
        std::make_unique<Exponential>(Exponential::from_mean(10000.0)));
  }
  PerNodeInjector injector(std::move(laws), Xoshiro256ss(13));
  int lemon = 0, total = 0;
  for (; total < 5000; ++total) {
    if (injector.peek().node == 0) ++lemon;
    injector.pop();
  }
  EXPECT_GT(static_cast<double>(lemon) / total, 0.85);
}

TEST(HeterogeneousInjectorTest, AggregateRateMatchesSumOfRates) {
  // Rates 1/100 + 3 * 1/300 = 0.02 -> mean platform gap 50.
  std::vector<std::unique_ptr<dckpt::util::Distribution>> laws;
  laws.push_back(
      std::make_unique<Exponential>(Exponential::from_mean(100.0)));
  for (int i = 0; i < 3; ++i) {
    laws.push_back(
        std::make_unique<Exponential>(Exponential::from_mean(300.0)));
  }
  PerNodeInjector injector(std::move(laws), Xoshiro256ss(14));
  RunningStats gaps;
  double previous = 0.0;
  for (int i = 0; i < 60000; ++i) {
    const auto event = injector.peek();
    gaps.add(event.time - previous);
    previous = event.time;
    injector.pop();
  }
  EXPECT_NEAR(gaps.mean(), 50.0, 6.0 * gaps.standard_error());
}

TEST(HeterogeneousInjectorTest, NullLawRejected) {
  std::vector<std::unique_ptr<dckpt::util::Distribution>> laws;
  laws.push_back(nullptr);
  EXPECT_THROW(PerNodeInjector(std::move(laws), Xoshiro256ss(15)),
               std::invalid_argument);
}

struct ResetCase {
  std::uint64_t nodes = 1;
  double shape = 1.0;
  bool per_node_laws = false;  ///< the heterogeneous-fleet constructor
  std::uint64_t warm_seed = 1;
  std::uint64_t warm_events = 0;
  bool warm_ends_on_peek = false;
  std::uint64_t seed = 2;
  std::uint64_t driver_seed = 3;
};

std::unique_ptr<PerNodeInjector> make_injector(const ResetCase& c,
                                               std::uint64_t seed) {
  if (!c.per_node_laws) {
    return std::make_unique<PerNodeInjector>(Weibull::from_mean(c.shape, 100.0),
                                             c.nodes, Xoshiro256ss(seed));
  }
  std::vector<std::unique_ptr<Distribution>> laws;
  for (std::uint64_t node = 0; node < c.nodes; ++node) {
    const Weibull law =
        Weibull::from_mean(c.shape, 50.0 * static_cast<double>(node + 1));
    laws.push_back(std::make_unique<Weibull>(law));
  }
  return std::make_unique<PerNodeInjector>(std::move(laws), Xoshiro256ss(seed));
}

/// Consumes `events` failures, replacing the failed node after a drawn
/// downtime about half the time (each replacement leaves a stale heap
/// entry behind), and returns the (time, node) sequence seen by peek().
std::vector<FailureEvent> drive(PerNodeInjector& injector,
                                std::uint64_t driver_seed,
                                std::uint64_t events) {
  Xoshiro256ss choices(driver_seed);
  std::vector<FailureEvent> seen;
  for (std::uint64_t i = 0; i < events; ++i) {
    const FailureEvent event = injector.peek();
    seen.push_back(event);
    injector.pop();
    if (choices.next_below(2) == 0) {
      injector.on_node_replaced(event.node, event.time,
                                event.time + 40.0 * choices.next_double());
    }
  }
  return seen;
}

TEST(PerNodeInjectorTest, PropertyResetMatchesFreshInjector) {
  proptest::ForallConfig config;
  config.seed = 0x4e5e7;
  config.iterations = 150;
  const auto draw = [](proptest::Gen& gen) {
    ResetCase c;
    c.nodes = gen.integer(1, 12);
    c.shape = gen.uniform(0.5, 2.0);
    c.per_node_laws = gen.boolean();
    c.warm_seed = gen.integer(1, 1u << 30);
    c.warm_events = gen.integer(0, 300);
    c.warm_ends_on_peek = gen.boolean();
    c.seed = gen.integer(1, 1u << 30);
    c.driver_seed = gen.integer(1, 1u << 30);
    return c;
  };
  const proptest::Property<ResetCase> property =
      [](const ResetCase& c) -> std::optional<std::string> {
    // The reused injector runs another trial first, so reset() must clear
    // its clocks, heap (stale entries included), cached top and stream.
    auto reused = make_injector(c, c.warm_seed);
    (void)drive(*reused, c.driver_seed + 1, c.warm_events);
    if (c.warm_ends_on_peek) (void)reused->peek();
    reused->reset(Xoshiro256ss(c.seed));
    auto fresh = make_injector(c, c.seed);
    constexpr std::uint64_t kEvents = 2000;
    const auto expected = drive(*fresh, c.driver_seed, kEvents);
    const auto actual = drive(*reused, c.driver_seed, kEvents);
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      if (actual[i].time != expected[i].time ||
          actual[i].node != expected[i].node) {
        std::ostringstream out;
        out.precision(17);
        out << "event " << i << ": reset gives (" << actual[i].time << ", "
            << actual[i].node << "), fresh gives (" << expected[i].time
            << ", " << expected[i].node << ")";
        return out.str();
      }
    }
    return std::nullopt;
  };
  const proptest::Show<ResetCase> show = [](const ResetCase& c) {
    std::ostringstream out;
    out << "nodes=" << c.nodes << " shape=" << c.shape
        << " per_node_laws=" << c.per_node_laws
        << " warm_seed=" << c.warm_seed << " warm_events=" << c.warm_events
        << " warm_ends_on_peek=" << c.warm_ends_on_peek
        << " seed=" << c.seed << " driver_seed=" << c.driver_seed;
    return out.str();
  };
  proptest::forall<ResetCase>(config, draw, property, nullptr, show);
}

}  // namespace
