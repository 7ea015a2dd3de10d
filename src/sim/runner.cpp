#include "sim/runner.hpp"

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "sim/batch_kernel.hpp"

namespace dckpt::sim {

void MetricsSpec::validate() const {
  if (bins == 0) throw std::invalid_argument("MetricsSpec: zero bins");
  if (!(max_slowdown > 1.0)) {
    throw std::invalid_argument("MetricsSpec: max_slowdown must be > 1");
  }
  if (!(max_failures > 0.0)) {
    throw std::invalid_argument("MetricsSpec: max_failures must be > 0");
  }
}

MonteCarloMetrics::MonteCarloMetrics(const MetricsSpec& spec)
    : waste(0.0, 1.0, spec.bins),
      slowdown(1.0, spec.max_slowdown, spec.bins),
      failures(0.0, spec.max_failures, spec.bins),
      risk_fraction(0.0, 1.0, spec.bins) {}

void MonteCarloMetrics::add(const TrialResult& trial) {
  // A trial with no positive baseline or makespan has no defined slowdown
  // or risk fraction; recording a sentinel 0.0 would silently land in the
  // slowdown underflow bucket (its range starts at 1.0) and pull the
  // risk-fraction quantiles toward zero. Count it instead of polluting.
  if (!(trial.t_base > 0.0) || !(trial.makespan > 0.0)) {
    ++degenerate;
    return;
  }
  waste.add(trial.waste());
  slowdown.add(trial.makespan / trial.t_base);
  failures.add(static_cast<double>(trial.failures));
  risk_fraction.add(trial.time_at_risk / trial.makespan);
}

void MonteCarloMetrics::merge(const MonteCarloMetrics& other) {
  waste.merge(other.waste);
  slowdown.merge(other.slowdown);
  failures.merge(other.failures);
  risk_fraction.merge(other.risk_fraction);
  degenerate += other.degenerate;
}

void accumulate_trial(MonteCarloResult& result, const TrialResult& trial) {
  if (trial.diverged) {
    ++result.diverged;
    return;
  }
  result.waste.add(trial.waste());
  result.makespan.add(trial.makespan);
  result.failures.add(static_cast<double>(trial.failures));
  result.risk_time.add(trial.time_at_risk);
  result.success.add(!trial.fatal);
  result.sdc_injected.add(static_cast<double>(trial.sdc_injected));
  result.sdc_detected.add(static_cast<double>(trial.sdc_detected));
  result.verify_time.add(trial.time_verifying);
  result.rollback_depth.add(static_cast<double>(trial.rollback_depth));
  result.alarms_raised.add(static_cast<double>(trial.alarms_raised));
  result.proactive_ckpts.add(static_cast<double>(trial.proactive_ckpts));
  result.true_predictions.add(static_cast<double>(trial.true_predictions));
  result.missed_failures.add(static_cast<double>(trial.missed_failures));
  result.proactive_time.add(trial.time_proactive);
  if (result.metrics) result.metrics->add(trial);
}

SimEngine engine_from_env(SimEngine fallback) {
  const char* value = std::getenv("DCKPT_ENGINE");
  if (value == nullptr) return fallback;
  const std::string_view name(value);
  if (name == "scalar") return SimEngine::kScalar;
  if (name == "batched") return SimEngine::kBatched;
  return fallback;
}

namespace {

std::unique_ptr<FailureInjector> make_injector(
    const SimConfig& config, const MonteCarloOptions& options,
    const util::Xoshiro256ss& stream) {
  if (options.weibull) {
    return std::make_unique<PerNodeInjector>(*options.weibull,
                                             config.params.nodes, stream);
  }
  return std::make_unique<PlatformExponentialInjector>(
      config.params.mtbf, config.params.nodes, stream);
}

}  // namespace

MonteCarloResult run_monte_carlo(const SimConfig& config,
                                 const MonteCarloOptions& options,
                                 util::ThreadPool& pool) {
  config.validate();
  if (options.metrics) options.metrics->validate();

  // Chunks are the accumulation units. A fixed chunk count (not a multiple
  // of the thread count) pins the stats merge tree: RunningStats::merge is
  // exact in content but not in floating-point association, so chunk
  // boundaries must not move with the thread count or the exported JSONL
  // would differ in the last ulp between -j1 and -j8 runs.
  constexpr std::size_t kChunks = 64;
  const std::size_t chunks = std::min<std::uint64_t>(options.trials, kChunks);
  // With trials == 0 there are no chunks; `partial` keeps one default slot
  // so the merge below runs and yields an empty (all-counts-zero) result.
  std::vector<MonteCarloResult> partial(std::max<std::size_t>(chunks, 1));
  const auto chunk_begin = [&](std::size_t c) {
    return util::chunk_begin(options.trials, chunks, c);
  };

  // Tasks are the dispatch units. Chunks that fill a kernel wave are a task
  // each; smaller ones are packed into contiguous runs, one per pool thread,
  // so a small campaign runs full waves with few thread handoffs. Every
  // trial still lands in its own chunk in trial order, so the packing
  // changes no result bit.
  const std::size_t tasks =
      options.trials / kChunks < kBatchLanes ? pool.thread_count() : chunks;

  util::parallel_for_chunked(
      pool, chunks, tasks,
      [&](std::size_t, std::size_t first_chunk, std::size_t end_chunk) {
        if (options.metrics) {
          for (std::size_t c = first_chunk; c < end_chunk; ++c) {
            partial[c].metrics.emplace(*options.metrics);
          }
        }
        const std::size_t begin = chunk_begin(first_chunk);
        const std::size_t end = chunk_begin(end_chunk);
        // Both engines hand trials over in ascending order, so a cursor
        // routes each one to its chunk's accumulator.
        std::size_t chunk = first_chunk;
        std::size_t chunk_end = chunk_begin(chunk + 1);
        std::size_t trial = begin;
        const auto sink = [&](const TrialResult& r) {
          if (trial == chunk_end) chunk_end = chunk_begin(++chunk + 1);
          accumulate_trial(partial[chunk], r);
          ++trial;
        };
        if (options.engine == SimEngine::kBatched) {
          run_trials_batched(config, options, begin, end, sink,
                             partial[first_chunk].kernel);
          return;
        }
        for (std::size_t k = begin; k < end; ++k) {
          // Per-trial stream derived by seed mixing (SplitMix64 inside the
          // Xoshiro constructor): trial k gets the same stream regardless of
          // chunking or thread count.
          const std::uint64_t stream_seed =
              options.seed ^ (0x9e3779b97f4a7c15ULL * (k + 1));
          const util::Xoshiro256ss stream(stream_seed);
          ProtocolSimulation simulation(
              config, make_injector(config, options, stream), stream_seed);
          sink(simulation.run());
        }
      });

  MonteCarloResult total;
  if (options.metrics) total.metrics.emplace(*options.metrics);
  for (const auto& p : partial) {
    total.waste.merge(p.waste);
    total.makespan.merge(p.makespan);
    total.failures.merge(p.failures);
    total.risk_time.merge(p.risk_time);
    total.success.merge(p.success);
    total.diverged += p.diverged;
    total.sdc_injected.merge(p.sdc_injected);
    total.sdc_detected.merge(p.sdc_detected);
    total.verify_time.merge(p.verify_time);
    total.rollback_depth.merge(p.rollback_depth);
    total.alarms_raised.merge(p.alarms_raised);
    total.proactive_ckpts.merge(p.proactive_ckpts);
    total.true_predictions.merge(p.true_predictions);
    total.missed_failures.merge(p.missed_failures);
    total.proactive_time.merge(p.proactive_time);
    total.kernel.merge(p.kernel);
    if (total.metrics && p.metrics) total.metrics->merge(*p.metrics);
  }
  return total;
}

MonteCarloResult run_monte_carlo(const SimConfig& config,
                                 const MonteCarloOptions& options) {
  util::ThreadPool pool(options.threads);
  return run_monte_carlo(config, options, pool);
}

}  // namespace dckpt::sim
