// Google-benchmark microbenchmarks of the engine substrates: RNG and
// distribution sampling throughput, failure-injector event rates, the
// discrete-event protocol simulator, and the PageStore snapshot/COW path.
// These bound how large a Monte-Carlo campaign a laptop supports.
//
// Extra mode for CI: `bench_micro_engine --engine-json=PATH [--trials=N]`
// skips google-benchmark and instead times the scalar vs batched Monte-Carlo
// engines head-to-head on the reference campaign, writing
// {scalar_trials_per_sec, batched_trials_per_sec, speedup, trials} to PATH,
// then on a small serve-sized Weibull campaign, appending
// {small_trials, small_scalar_trials_per_sec, small_batched_trials_per_sec,
// small_speedup}. scripts/check_bench_regression.py compares that file
// against the committed BENCH_engine.json baseline.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/dcp.hpp"
#include "ckpt/page_store.hpp"
#include "model/model_api.hpp"
#include "net/network.hpp"
#include "sim/protocol_sim.hpp"
#include "sim/runner.hpp"
#include "util/distributions.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"

namespace {

using namespace dckpt;

void BM_Xoshiro256(benchmark::State& state) {
  util::Xoshiro256ss rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Xoshiro256);

void BM_ExponentialSample(benchmark::State& state) {
  util::Xoshiro256ss rng(42);
  const auto dist = util::Exponential::from_mean(100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist.sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExponentialSample);

void BM_WeibullSample(benchmark::State& state) {
  util::Xoshiro256ss rng(42);
  const auto dist = util::Weibull::from_mean(0.7, 100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist.sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WeibullSample);

void BM_PerNodeInjector(benchmark::State& state) {
  const auto nodes = static_cast<std::uint64_t>(state.range(0));
  const auto dist =
      util::Exponential::from_mean(1000.0 * static_cast<double>(nodes));
  sim::PerNodeInjector injector(dist, nodes, util::Xoshiro256ss(7));
  for (auto _ : state) {
    benchmark::DoNotOptimize(injector.peek());
    injector.pop();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PerNodeInjector)->Arg(64)->Arg(4096)->Arg(262144);

void BM_ProtocolSimulationTrial(benchmark::State& state) {
  sim::SimConfig config;
  config.protocol = static_cast<model::Protocol>(state.range(0));
  config.params = model::base_scenario().at_phi_ratio(0.25);
  config.params.nodes = 1026;  // divisible by both group sizes
  config.params.mtbf = 600.0;
  config.period =
      model::optimal_period_closed_form(config.protocol, config.params).period;
  config.t_base = 100000.0;  // ~166 failures per trial
  config.stop_on_fatal = false;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate_exponential(config, seed++));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::string(model::protocol_name(config.protocol)));
}
BENCHMARK(BM_ProtocolSimulationTrial)
    ->Arg(static_cast<int>(model::Protocol::DoubleNbl))
    ->Arg(static_cast<int>(model::Protocol::Triple));

/// The reference Monte-Carlo campaign for engine comparisons: the paper's
/// base platform at phi/theta = 0.25, 1026 nodes with a one-day platform
/// MTBF (node MTBF ~2.8 years -- realistic, unlike the failure-saturated
/// mtbf=600 stress configuration BM_ProtocolSimulationTrial uses) and an
/// 18-day workload. Roughly 2300 periods and 19 failures per trial; no
/// fatal stop, so every trial runs the full t_base.
sim::SimConfig engine_reference_config() {
  sim::SimConfig config;
  config.protocol = model::Protocol::DoubleNbl;
  config.params = model::base_scenario().at_phi_ratio(0.25);
  config.params.nodes = 1026;  // divisible by both group sizes
  config.params.mtbf = 86400.0;
  config.period =
      model::optimal_period_closed_form(config.protocol, config.params).period;
  config.t_base = 1600000.0;
  config.stop_on_fatal = false;
  return config;
}

void BM_MonteCarloEngine(benchmark::State& state) {
  const auto config = engine_reference_config();
  sim::MonteCarloOptions options;
  options.engine = state.range(0) == 0 ? sim::SimEngine::kScalar
                                       : sim::SimEngine::kBatched;
  options.trials = 64;
  options.threads = 1;
  options.seed = 42;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_monte_carlo(config, options));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(options.trials));
  state.SetLabel(state.range(0) == 0 ? "scalar" : "batched");
}
BENCHMARK(BM_MonteCarloEngine)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_OptimalPeriodNumeric(benchmark::State& state) {
  const auto params = model::base_scenario().at_phi_ratio(0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model::optimal_period_numeric(model::Protocol::DoubleNbl, params));
  }
}
BENCHMARK(BM_OptimalPeriodNumeric);

void BM_PageStoreSnapshot(benchmark::State& state) {
  ckpt::PageStore store(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.snapshot(1));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PageStoreSnapshot)->Arg(1 << 20)->Arg(16 << 20);

void BM_PageStoreCowWrite(benchmark::State& state) {
  ckpt::PageStore store(1 << 20);
  std::vector<std::byte> data(4096, std::byte{0xAB});
  std::size_t offset = 0;
  std::uint64_t stamp = 0;
  ckpt::Snapshot snap = store.snapshot(1);
  for (auto _ : state) {
    // New bytes every write: a write of the bytes a page holds is skipped.
    ++stamp;
    std::memcpy(data.data(), &stamp, sizeof stamp);
    store.write(offset, data);
    offset = (offset + 4096) % ((1 << 20) - 4096);
    if (offset == 0) snap = store.snapshot(1);  // re-arm COW
  }
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_PageStoreCowWrite);

/// A dcp diff of a 1 MiB image after 16 random stamped 4 KiB page writes,
/// against the previous snapshot's hash array. Arg 0 hashes every block;
/// arg 1 passes the previous snapshot as the hash reference, so only the
/// rewritten pages are read.
void BM_BlockDiff(benchmark::State& state) {
  const std::size_t bytes = 1 << 20;
  ckpt::PageStore store(bytes);
  util::Xoshiro256ss rng(3);
  std::vector<std::byte> payload(4096, std::byte{0x7});
  ckpt::Snapshot base = store.snapshot(1);
  std::vector<std::uint64_t> hashes = ckpt::block_hashes(base, 4096);
  std::uint64_t stamp = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (int i = 0; i < 16; ++i) {
      ++stamp;
      std::memcpy(payload.data(), &stamp, sizeof stamp);
      store.write(rng.next_below(bytes / 4096) * 4096, payload);
    }
    const ckpt::Snapshot current = store.snapshot(1);
    state.ResumeTiming();
    ckpt::BlockDiff diff = ckpt::diff_blocks(
        hashes, base.version(), base.content_hash(), current, 4096,
        state.range(0) ? ckpt::HashReference{&base, hashes}
                       : ckpt::HashReference{});
    benchmark::DoNotOptimize(diff);
    state.PauseTiming();
    base = current;
    hashes = std::move(diff.hashes);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockDiff)->Arg(0)->Arg(1);

void BM_MaxMinFairRates(benchmark::State& state) {
  const auto flows_count = static_cast<std::size_t>(state.range(0));
  net::FlatNetwork network(64, 1e8);
  util::Xoshiro256ss rng(4);
  std::vector<net::Flow> flows;
  for (std::size_t f = 0; f < flows_count; ++f) {
    const std::uint64_t src = rng.next_below(64);
    std::uint64_t dst = rng.next_below(64);
    if (dst == src) dst = (dst + 1) % 64;
    flows.push_back({src, dst,
                     (f % 3 == 0) ? 2e7 : dckpt::net::kUncapped});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(network.fair_rates(flows));
  }
  state.SetItemsProcessed(state.iterations() * flows_count);
}
BENCHMARK(BM_MaxMinFairRates)->Arg(8)->Arg(64)->Arg(256);

/// A fresh Weibull `kind=sim` request of `dckpt serve` as the service builds
/// it: its defaults (Triple, platform MTBF 25200 s, t_base 1e5 s, 400
/// trials) on the base platform at phi/theta = 0.25, shrunk to 108 nodes
/// with shape-0.7 Weibull node lifetimes. Its 64 chunks hold ~6 trials, a
/// fifth of a 32-lane wave, so it measures how the runner packs small
/// chunks and how lanes reuse their per-node injectors.
constexpr std::uint64_t kSmallTrials = 400;

sim::SimConfig small_campaign_config() {
  sim::SimConfig config;
  config.protocol = model::Protocol::Triple;
  config.params = model::base_scenario().at_phi_ratio(0.25).with_mtbf(25200.0);
  config.params.nodes = 108;
  config.period =
      model::optimal_period_closed_form(config.protocol, config.params).period;
  config.t_base = 100000.0;
  config.stop_on_fatal = false;
  return config;
}

/// Times `trials` trials of `config` through one engine (single thread,
/// fixed seed) and returns trials per second. One small untimed warmup run
/// absorbs lazy allocations; best-of-`reps` repetitions filters scheduler
/// noise, which otherwise dwarfs real regressions on shared CI runners.
double engine_trials_per_sec(const sim::SimConfig& config,
                             sim::MonteCarloOptions options,
                             std::uint64_t trials, int reps) {
  options.threads = 1;
  options.seed = 42;
  options.trials = 64;
  benchmark::DoNotOptimize(sim::run_monte_carlo(config, options));  // warmup
  options.trials = trials;
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(sim::run_monte_carlo(config, options));
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    best = std::max(best, static_cast<double>(trials) / seconds);
  }
  return best;
}

int run_engine_comparison(const std::string& json_path,
                          std::uint64_t trials) {
  const auto reference = engine_reference_config();
  sim::MonteCarloOptions options;
  options.engine = sim::SimEngine::kScalar;
  const double scalar = engine_trials_per_sec(reference, options, trials, 3);
  options.engine = sim::SimEngine::kBatched;
  const double batched = engine_trials_per_sec(reference, options, trials, 3);
  // A small campaign takes milliseconds, so more repetitions cost little.
  const auto small = small_campaign_config();
  options.weibull = util::Weibull::from_mean(0.7, small.params.node_mtbf());
  options.engine = sim::SimEngine::kScalar;
  const double small_scalar =
      engine_trials_per_sec(small, options, kSmallTrials, 15);
  options.engine = sim::SimEngine::kBatched;
  const double small_batched =
      engine_trials_per_sec(small, options, kSmallTrials, 15);
  auto v = dckpt::util::JsonValue::object();
  v.set("record", "bench_engine");
  v.set("trials", trials);
  v.set("scalar_trials_per_sec", scalar);
  v.set("batched_trials_per_sec", batched);
  v.set("speedup", batched / scalar);
  v.set("small_trials", kSmallTrials);
  v.set("small_scalar_trials_per_sec", small_scalar);
  v.set("small_batched_trials_per_sec", small_batched);
  v.set("small_speedup", small_batched / small_scalar);
  const std::string text = v.dump();
  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out, "%s\n", text.c_str());
  std::fclose(out);
  std::printf("%s\n", text.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string engine_json;
  std::uint64_t trials = 2000;
  std::vector<char*> passthrough{argv, argv + argc};
  for (auto it = passthrough.begin(); it != passthrough.end();) {
    if (std::strncmp(*it, "--engine-json=", 14) == 0) {
      engine_json = *it + 14;
      it = passthrough.erase(it);
    } else if (std::strncmp(*it, "--trials=", 9) == 0) {
      const auto parsed = dckpt::util::parse_number<std::uint64_t>(*it + 9);
      if (!parsed) {
        std::fprintf(stderr, "%s: option --trials: invalid value '%s'\n",
                     argv[0], *it + 9);
        return 2;
      }
      trials = parsed.value;
      it = passthrough.erase(it);
    } else {
      ++it;
    }
  }
  if (!engine_json.empty()) {
    return run_engine_comparison(engine_json, trials == 0 ? 2000 : trials);
  }
  int filtered_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&filtered_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc,
                                             passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
