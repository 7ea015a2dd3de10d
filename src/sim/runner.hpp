// Monte-Carlo driver: runs many independent executions of a SimConfig and
// aggregates waste, makespan and fatal-failure statistics.
//
// Reproducibility contract: trial k always uses RNG stream k split from the
// master seed, and trials fall into 64 fixed chunks whose boundaries, add
// order and merge tree depend only on the trial count -- results are
// bit-identical for any thread count. Chunks are accumulation units, not
// dispatch units: a chunk that fills a kernel wave runs as its own pool
// task, while smaller chunks share a task, one contiguous run per pool
// thread, so a small campaign runs full waves.
#pragma once

#include <cstdint>
#include <optional>

#include "sim/protocol_sim.hpp"
#include "util/distributions.hpp"
#include "util/histogram.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace dckpt::sim {

/// Layout of the optional per-trial distribution collection. Bin edges are
/// fixed up front (not data-dependent) so per-chunk histograms merge by
/// plain count addition -- the result is bit-identical for any thread
/// count, preserving the runner's reproducibility contract.
struct MetricsSpec {
  std::size_t bins = 64;
  double max_slowdown = 4.0;     ///< makespan/t_base range [1, max_slowdown)
  double max_failures = 1024.0;  ///< failures-per-trial range [0, max_failures)

  void validate() const;
};

/// Per-trial distributions from one Monte-Carlo campaign. `waste` and
/// `risk_fraction` (time_at_risk/makespan) are dimensionless in [0, 1);
/// `slowdown` is makespan in units of t_base; `failures` counts per trial.
struct MonteCarloMetrics {
  util::Histogram waste;
  util::Histogram slowdown;
  util::Histogram failures;
  util::Histogram risk_fraction;
  /// Trials whose slowdown/risk-fraction ratios are undefined (t_base <= 0
  /// or makespan <= 0). Counted here instead of recording a sentinel 0.0
  /// that would land in the underflow bucket and skew quantiles.
  std::uint64_t degenerate = 0;

  explicit MonteCarloMetrics(const MetricsSpec& spec);

  void add(const TrialResult& trial);
  void merge(const MonteCarloMetrics& other);
};

/// Which trial-execution engine run_monte_carlo dispatches to. Both produce
/// bit-identical results (enforced by the scalar-vs-SoA equivalence tests);
/// the scalar path is kept as the slow reference oracle.
enum class SimEngine {
  kBatched,  ///< SoA batch kernel: pre-sampled variates, branch-light loop
  kScalar,   ///< one ProtocolSimulation object per trial (reference oracle)
};

/// Occupancy/throughput counters from the batched kernel, merged across
/// chunks. All zero when the scalar engine ran.
struct BatchKernelStats {
  std::uint64_t waves = 0;         ///< lane-batches launched
  std::uint64_t lanes = 0;         ///< trials placed into lanes
  std::uint64_t fast_periods = 0;  ///< periods advanced on the fast path
  std::uint64_t exact_steps = 0;   ///< micro-steps in the exact state machine

  /// Mean fraction of lanes filled per wave (1.0 = fully occupied).
  double occupancy(std::size_t lanes_per_wave) const noexcept {
    return waves == 0 ? 0.0
                      : static_cast<double>(lanes) /
                            (static_cast<double>(waves) *
                             static_cast<double>(lanes_per_wave));
  }

  void merge(const BatchKernelStats& other) noexcept {
    waves += other.waves;
    lanes += other.lanes;
    fast_periods += other.fast_periods;
    exact_steps += other.exact_steps;
  }
};

/// Engine override from the DCKPT_ENGINE environment variable ("scalar" or
/// "batched"); `fallback` when unset or unrecognized. Seeds the default of
/// MonteCarloOptions::engine, so CI can re-run the whole test suite under
/// the reference oracle without code changes.
SimEngine engine_from_env(SimEngine fallback = SimEngine::kBatched);

struct MonteCarloOptions {
  std::uint64_t trials = 1000;
  std::uint64_t seed = 0xdc4b7;
  std::size_t threads = 0;  ///< 0 = hardware concurrency
  /// Inter-arrival law for per-node streams; unset = platform exponential
  /// (matches the paper's assumptions and is O(1) per failure).
  std::optional<util::Weibull> weibull;
  /// Enables distribution collection; unset keeps the hot loop free of any
  /// histogram work.
  std::optional<MetricsSpec> metrics;
  /// Trial-execution engine. The batched SoA kernel is the default (unless
  /// DCKPT_ENGINE overrides it); the scalar object-at-a-time path is the
  /// bit-identical reference oracle. Explicit assignment always wins.
  SimEngine engine = engine_from_env();
};

struct MonteCarloResult {
  util::RunningStats waste;            ///< per-trial waste 1 - t_base/T
  util::RunningStats makespan;
  util::RunningStats failures;         ///< failures per trial
  util::RunningStats risk_time;        ///< per-trial exposed wall-clock, s
  util::ProportionEstimate success;    ///< trial finished without fatal
  std::uint64_t diverged = 0;          ///< trials that hit the makespan cap
  // Silent-error aggregates (all zero when SimConfig::verify_every is 0).
  util::RunningStats sdc_injected;     ///< silent strikes per trial
  util::RunningStats sdc_detected;     ///< detecting verifications per trial
  util::RunningStats verify_time;      ///< per-trial verification wall-clock
  util::RunningStats rollback_depth;   ///< summed rollback depth per trial
  // Fault-prediction aggregates (all zero when SimConfig::pred_recall is 0).
  util::RunningStats alarms_raised;    ///< alarms per trial (true + false)
  util::RunningStats proactive_ckpts;  ///< proactive commits per trial
  util::RunningStats true_predictions; ///< predicted failures per trial
  util::RunningStats missed_failures;  ///< unpredicted failures per trial
  util::RunningStats proactive_time;   ///< per-trial proactive wall-clock
  /// Present iff MonteCarloOptions::metrics was set.
  std::optional<MonteCarloMetrics> metrics;
  /// Batched-kernel occupancy counters (all zero under SimEngine::kScalar).
  BatchKernelStats kernel;
};

/// Folds one finished trial into the aggregate result, in trial order.
/// Shared by the scalar chunk loop and the batched kernel so both paths
/// feed RunningStats/histograms through the exact same sequence of adds
/// (Welford updates are order-sensitive; this keeps them bit-identical).
void accumulate_trial(MonteCarloResult& result, const TrialResult& trial);

/// Runs `options.trials` independent executions of `config`.
MonteCarloResult run_monte_carlo(const SimConfig& config,
                                 const MonteCarloOptions& options);

/// Same, reusing an existing pool (benches sweep many configs).
MonteCarloResult run_monte_carlo(const SimConfig& config,
                                 const MonteCarloOptions& options,
                                 util::ThreadPool& pool);

}  // namespace dckpt::sim
