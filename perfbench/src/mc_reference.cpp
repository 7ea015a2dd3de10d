// mc-reference: sim::run_monte_carlo on the engine's reference campaign
// (the one bench/bench_micro_engine.cpp and BENCH_engine.json track), on
// the batched kernel with a two-thread pool. Also home of the traced
// engine decomposition that serve-mixed reuses for its sim requests.
#include <bit>
#include <cmath>
#include <memory>

#include "bench.hpp"
#include "model/model_api.hpp"
#include "sim/batch_kernel.hpp"
#include "sim/runner.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace sim = dckpt::sim;

namespace {

constexpr std::size_t kThreads = 2;
// 4000 trials fill the runner's 64 chunks with ~62 trials each: two nearly
// full 32-lane waves per chunk.
constexpr std::uint64_t kTrialsPerCall = 4000;
// Trials compared bit for bit against the scalar reference engine.
constexpr std::uint64_t kScalarPrefix = 256;
constexpr int kSetupReps = 31;
// Trials of the traced engine decomposition (fixed, so its counts are
// seed-determined).
constexpr std::uint64_t kDecompositionTrials = 16000;

/// bench_micro_engine's engine_reference_config(): base scenario at
/// phi/R = 0.25, 1026 nodes, platform MTBF one day, t_base = 1.6e6 s,
/// DoubleNBL, no fatal stop.
sim::SimConfig reference_config() {
  sim::SimConfig config;
  config.protocol = dckpt::model::Protocol::DoubleNbl;
  config.params = dckpt::model::base_scenario().at_phi_ratio(0.25);
  config.params.nodes = 1026;
  config.params.mtbf = 86400.0;
  config.period = dckpt::model::optimal_period_closed_form(config.protocol,
                                                           config.params)
                      .period;
  config.t_base = 1600000.0;
  config.stop_on_fatal = false;
  return config;
}

std::uint64_t call_seed(std::uint64_t seed, std::uint64_t call) {
  return seed * 0x9e3779b97f4a7c15ULL + call * 0xbf58476d1ce4e5b9ULL + 1;
}

/// Every aggregate a campaign reports, as raw doubles for a bitwise compare.
std::vector<double> fingerprint(const sim::MonteCarloResult& r) {
  std::vector<double> v;
  for (const auto* s : {&r.waste, &r.makespan, &r.failures, &r.risk_time}) {
    v.insert(v.end(), {static_cast<double>(s->count()), s->mean(),
                       s->variance(), s->min(), s->max()});
  }
  v.push_back(static_cast<double>(r.success.successes()));
  v.push_back(static_cast<double>(r.success.trials()));
  v.push_back(static_cast<double>(r.diverged));
  return v;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

/// Sanity of one campaign: every trial counted, none diverged, waste a
/// fraction.
bool plausible(const sim::MonteCarloResult& r, std::uint64_t trials) {
  const double w = r.waste.mean();
  return r.waste.count() == trials && r.diverged == 0 && std::isfinite(w) &&
         w > 0.0 && w < 1.0;
}

struct Timed {
  std::vector<double> rates;  ///< trials/s of each campaign call
  std::uint64_t calls = 0;
  /// Median over calls: robust to bursts of contention from other tenants.
  double trials_per_s() const { return median(rates); }
};

Timed timed_calls(const sim::SimConfig& config, dckpt::util::ThreadPool& pool,
                  std::uint64_t seed, std::uint64_t first_call, double budget_s,
                  Tracer* tracer, Outcome& out) {
  Timed t;
  const auto start = Clock::now();
  while (seconds_since(start) < budget_s) {
    sim::MonteCarloOptions options;
    options.trials = kTrialsPerCall;
    options.seed = call_seed(seed, first_call + t.calls);
    options.threads = kThreads;
    options.engine = sim::SimEngine::kBatched;
    const auto call_start = Clock::now();
    sim::MonteCarloResult result;
    {
      Scope scope(tracer, "sim.runner.run_monte_carlo");
      result = sim::run_monte_carlo(config, options, pool);
    }
    t.rates.push_back(static_cast<double>(options.trials) /
                      seconds_since(call_start));
    ++t.calls;
    out.check(plausible(result, options.trials),
              "mc-reference campaign " + std::to_string(options.seed) +
                  " implausible");
  }
  return t;
}

}  // namespace

void engine_layers(Tracer& tracer, const std::vector<EngineJob>& jobs,
                   Outcome& out) {
  dckpt::util::ThreadPool one(1);
  sim::BatchKernelStats stats;
  Scope root(&tracer, "perfbench.engine_layers");
  for (const EngineJob& job : jobs) {
    sim::MonteCarloOptions options = job.options;
    options.threads = 1;
    options.engine = sim::SimEngine::kBatched;
    {
      Scope scope(&tracer, "sim.runner.run_monte_carlo", root.id());
      (void)sim::run_monte_carlo(job.config, options, one);
    }
    // The runner's own chunking, replayed with one span per chunk kernel
    // call and one per chunk's accumulate_trial loop. The sink only keeps
    // the trials, so a span per trial does not inflate the ~100 ns each
    // accumulation costs.
    const std::size_t chunks = std::min<std::uint64_t>(options.trials, 64);
    std::vector<sim::MonteCarloResult> partial(chunks);
    dckpt::util::parallel_for_chunked(
        one, options.trials, chunks,
        [&](std::size_t chunk, std::size_t begin, std::size_t end) {
          std::vector<sim::TrialResult> trials;
          trials.reserve(end - begin);
          {
            Scope kernel(&tracer, "sim.batch_kernel.run_trials_batched",
                         root.id());
            sim::run_trials_batched(
                job.config, options, begin, end,
                [&](const sim::TrialResult& r) { trials.push_back(r); }, stats);
          }
          Scope acc(&tracer, "sim.runner.accumulate_trial", root.id());
          for (const sim::TrialResult& r : trials) {
            sim::accumulate_trial(partial[chunk], r);
          }
        });
  }
  const double monte_carlo_s =
      sum(tracer.durations_under("sim.runner.run_monte_carlo", root.id()));
  const double busy_s = sum(
      tracer.durations_under("sim.batch_kernel.run_trials_batched", root.id()));
  const double accumulate_s =
      sum(tracer.durations_under("sim.runner.accumulate_trial", root.id()));
  const double periods =
      static_cast<double>(stats.fast_periods + stats.exact_steps);
  out.metric("sim.runner.run_monte_carlo_s", monte_carlo_s, "s");
  out.metric("sim.batch_kernel.busy_s", busy_s, "s");
  out.metric("sim.runner.accumulate_s", accumulate_s, "s");
  out.metric("sim.runner.pool_merge_s", monte_carlo_s - busy_s - accumulate_s,
             "s");
  out.metric("sim.batch_kernel.fast_periods",
             static_cast<double>(stats.fast_periods), "count");
  out.metric("sim.batch_kernel.exact_steps",
             static_cast<double>(stats.exact_steps), "count");
  out.metric("sim.batch_kernel.ns_per_period",
             periods > 0 ? busy_s * 1e9 / periods : 0.0, "ns");
  out.metric("sim.batch_kernel.lane_occupancy",
             stats.occupancy(sim::kBatchLanes), "ratio");
}

void run_mc_reference(const Args& args, Outcome& out) {
  // Set-up: the pool, the config and its optimal period, several times.
  std::vector<double> setup_s;
  std::unique_ptr<dckpt::util::ThreadPool> pool;
  sim::SimConfig config;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    pool.reset();
    const auto start = Clock::now();
    pool = std::make_unique<dckpt::util::ThreadPool>(kThreads);
    config = reference_config();
    setup_s.push_back(seconds_since(start));
  }
  // Warm-up outside the timed region: first touch of the pool's threads.
  {
    sim::MonteCarloOptions warm;
    warm.trials = kTrialsPerCall;
    warm.threads = kThreads;
    warm.engine = sim::SimEngine::kBatched;
    (void)sim::run_monte_carlo(config, warm, *pool);
  }

  std::unique_ptr<Tracer> tracer;
  Timed timed;
  if (!args.trace) {
    timed = timed_calls(config, *pool, args.seed, 0, args.seconds, nullptr, out);
  } else {
    // Half untraced, half traced: the difference is the tracing overhead.
    const Timed plain =
        timed_calls(config, *pool, args.seed, 0, args.seconds / 2, nullptr, out);
    tracer = std::make_unique<Tracer>();
    timed = timed_calls(config, *pool, args.seed, plain.calls,
                        args.seconds / 2, tracer.get(), out);
    trace_overhead(plain.trials_per_s(), timed.trials_per_s(), out);
  }
  const double trials_per_s = timed.trials_per_s();
  // Sampled before the checks, which are not part of the workload.
  out.metric("peak_rss_mib", peak_rss_mib(), "MiB");

  // Check: a prefix of the first campaign, batched vs the scalar oracle,
  // bit for bit.
  sim::MonteCarloOptions prefix;
  prefix.trials = kScalarPrefix;
  prefix.seed = call_seed(args.seed, 0);
  prefix.threads = kThreads;
  prefix.engine = sim::SimEngine::kBatched;
  const auto batched = fingerprint(sim::run_monte_carlo(config, prefix, *pool));
  prefix.engine = sim::SimEngine::kScalar;
  auto scalar = fingerprint(sim::run_monte_carlo(config, prefix, *pool));
  if (args.sabotage == "scalar-trial") {
    scalar[1] = std::nextafter(scalar[1], 1.0);  // waste mean, one ulp off
  }
  out.check(bitwise_equal(batched, scalar),
            "batched prefix differs from the scalar engine");

  out.metric("setup_s", median(setup_s), "s");
  out.metric("ops_per_s", trials_per_s, "op/s");
  out.report.set("mc_trials_per_s", trials_per_s);
  out.report.set("call_rate_p25", quantile(timed.rates, 0.25));
  out.report.set("call_rate_p75", quantile(timed.rates, 0.75));
  out.report.set("campaigns", timed.calls);
  out.report.set("trials_per_campaign", kTrialsPerCall);
  out.report.set("scalar_prefix_trials", kScalarPrefix);

  if (tracer) {
    std::vector<EngineJob> jobs;
    for (std::uint64_t i = 0; i < kDecompositionTrials / kTrialsPerCall; ++i) {
      EngineJob job{config, {}};
      job.options.trials = kTrialsPerCall;
      job.options.seed = call_seed(args.seed, i);
      jobs.push_back(job);
    }
    engine_layers(*tracer, jobs, out);
    finish_trace(*tracer, args, out);
  }
}

}  // namespace perfbench
