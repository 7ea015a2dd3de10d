// Scalar-vs-batched bit-equivalence: the SoA kernel's contract is that every
// TrialResult it emits is bit-for-bit the one the scalar ProtocolSimulation
// produces from the same per-trial stream. The suite checks that contract
// directly (per-trial, per-field, exact double equality) across every
// protocol for both injector families, checks thread-count invariance of the
// exported JSONL through the batched path, and closes with a property test
// over randomly drawn platforms.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "model/model_api.hpp"
#include "proptest.hpp"
#include "sim/batch_kernel.hpp"
#include "sim/export.hpp"
#include "sim/protocol_sim.hpp"
#include "sim/runner.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"

namespace {

using namespace dckpt;

sim::SimConfig make_config(model::Protocol protocol, double mtbf,
                           std::uint64_t nodes, double period, double t_base,
                           bool stop_on_fatal) {
  sim::SimConfig config;
  config.protocol = protocol;
  config.params = model::base_scenario().at_phi_ratio(0.25).with_mtbf(mtbf);
  config.params.nodes = nodes;
  config.period = period;
  config.t_base = t_base;
  config.stop_on_fatal = stop_on_fatal;
  return config;
}

/// The scalar reference: per-trial streams derived exactly as the runner
/// derives them, one ProtocolSimulation per trial.
std::vector<sim::TrialResult> scalar_trials(const sim::SimConfig& config,
                                            const sim::MonteCarloOptions& options,
                                            std::size_t trials) {
  std::vector<sim::TrialResult> results;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    const std::uint64_t stream_seed =
        options.seed ^ (0x9e3779b97f4a7c15ULL * (trial + 1));
    const util::Xoshiro256ss stream(stream_seed);
    std::unique_ptr<sim::FailureInjector> injector;
    if (options.weibull) {
      injector = std::make_unique<sim::PerNodeInjector>(
          *options.weibull, config.params.nodes, stream);
    } else {
      injector = std::make_unique<sim::PlatformExponentialInjector>(
          config.params.mtbf, config.params.nodes, stream);
    }
    sim::ProtocolSimulation simulation(config, std::move(injector),
                                       stream_seed);
    results.push_back(simulation.run());
  }
  return results;
}

std::vector<sim::TrialResult> batched_trials(const sim::SimConfig& config,
                                             const sim::MonteCarloOptions& options,
                                             std::size_t trials) {
  std::vector<sim::TrialResult> results;
  sim::BatchKernelStats stats;
  sim::run_trials_batched(
      config, options, 0, trials,
      [&results](const sim::TrialResult& r) { results.push_back(r); }, stats);
  return results;
}

/// Exact double equality on purpose: the contract is bit-identity, not
/// closeness.
std::optional<std::string> compare_trial(const sim::TrialResult& s,
                                         const sim::TrialResult& b,
                                         std::size_t trial) {
  const auto mismatch = [&](const char* field, double sv,
                            double bv) -> std::optional<std::string> {
    std::ostringstream out;
    out.precision(17);
    out << "trial " << trial << " field " << field << ": scalar " << sv
        << " vs batched " << bv;
    return out.str();
  };
  if (s.makespan != b.makespan) return mismatch("makespan", s.makespan, b.makespan);
  if (s.t_base != b.t_base) return mismatch("t_base", s.t_base, b.t_base);
  if (s.failures != b.failures) {
    return mismatch("failures", static_cast<double>(s.failures),
                    static_cast<double>(b.failures));
  }
  if (s.fatal != b.fatal) return mismatch("fatal", s.fatal, b.fatal);
  if (s.fatal_time != b.fatal_time) {
    return mismatch("fatal_time", s.fatal_time, b.fatal_time);
  }
  if (s.diverged != b.diverged) return mismatch("diverged", s.diverged, b.diverged);
  if (s.time_checkpointing != b.time_checkpointing) {
    return mismatch("time_checkpointing", s.time_checkpointing,
                    b.time_checkpointing);
  }
  if (s.time_down != b.time_down) {
    return mismatch("time_down", s.time_down, b.time_down);
  }
  if (s.time_recovering != b.time_recovering) {
    return mismatch("time_recovering", s.time_recovering, b.time_recovering);
  }
  if (s.time_reexecuting != b.time_reexecuting) {
    return mismatch("time_reexecuting", s.time_reexecuting,
                    b.time_reexecuting);
  }
  if (s.time_at_risk != b.time_at_risk) {
    return mismatch("time_at_risk", s.time_at_risk, b.time_at_risk);
  }
  if (s.time_verifying != b.time_verifying) {
    return mismatch("time_verifying", s.time_verifying, b.time_verifying);
  }
  if (s.sdc_injected != b.sdc_injected) {
    return mismatch("sdc_injected", static_cast<double>(s.sdc_injected),
                    static_cast<double>(b.sdc_injected));
  }
  if (s.verifications_run != b.verifications_run) {
    return mismatch("verifications_run",
                    static_cast<double>(s.verifications_run),
                    static_cast<double>(b.verifications_run));
  }
  if (s.sdc_detected != b.sdc_detected) {
    return mismatch("sdc_detected", static_cast<double>(s.sdc_detected),
                    static_cast<double>(b.sdc_detected));
  }
  if (s.rollback_depth != b.rollback_depth) {
    return mismatch("rollback_depth", static_cast<double>(s.rollback_depth),
                    static_cast<double>(b.rollback_depth));
  }
  if (s.time_proactive != b.time_proactive) {
    return mismatch("time_proactive", s.time_proactive, b.time_proactive);
  }
  if (s.alarms_raised != b.alarms_raised) {
    return mismatch("alarms_raised", static_cast<double>(s.alarms_raised),
                    static_cast<double>(b.alarms_raised));
  }
  if (s.proactive_ckpts != b.proactive_ckpts) {
    return mismatch("proactive_ckpts",
                    static_cast<double>(s.proactive_ckpts),
                    static_cast<double>(b.proactive_ckpts));
  }
  if (s.true_predictions != b.true_predictions) {
    return mismatch("true_predictions",
                    static_cast<double>(s.true_predictions),
                    static_cast<double>(b.true_predictions));
  }
  if (s.missed_failures != b.missed_failures) {
    return mismatch("missed_failures",
                    static_cast<double>(s.missed_failures),
                    static_cast<double>(b.missed_failures));
  }
  return std::nullopt;
}

void expect_equivalent(const sim::SimConfig& config,
                       const sim::MonteCarloOptions& options,
                       std::size_t trials) {
  const auto scalar = scalar_trials(config, options, trials);
  const auto batched = batched_trials(config, options, trials);
  ASSERT_EQ(scalar.size(), batched.size());
  for (std::size_t i = 0; i < trials; ++i) {
    const auto failure = compare_trial(scalar[i], batched[i], i);
    EXPECT_FALSE(failure.has_value())
        << *failure << " (protocol "
        << model::protocol_name(config.protocol) << ")";
    if (failure) return;  // one detailed failure beats 50 copies
  }
}

TEST(BatchKernel, BitIdenticalToScalarExponentialAllProtocols) {
  for (const model::Protocol protocol : model::kAllProtocols) {
    const auto config = make_config(protocol, 500.0, 12, 100.0, 5000.0,
                                    /*stop_on_fatal=*/false);
    sim::MonteCarloOptions options;
    options.seed = 4242;
    expect_equivalent(config, options, 50);
  }
}

TEST(BatchKernel, BitIdenticalToScalarWeibullAllProtocols) {
  for (const model::Protocol protocol : model::kAllProtocols) {
    const auto config = make_config(protocol, 500.0, 12, 100.0, 5000.0,
                                    /*stop_on_fatal=*/false);
    sim::MonteCarloOptions options;
    options.seed = 777;
    options.weibull =
        util::Weibull::from_mean(0.7, config.params.node_mtbf());
    expect_equivalent(config, options, 50);
  }
}

TEST(BatchKernel, BitIdenticalWithSilentErrorsExponentialAllProtocols) {
  // Verification on: the batched kernel must leave its fast path and still
  // reproduce strike arrivals, Verify phases, rollback ladders, and
  // fatal-accept bookkeeping event-for-event.
  for (const model::Protocol protocol : model::kAllProtocols) {
    auto config = make_config(protocol, 500.0, 12, 100.0, 5000.0,
                              /*stop_on_fatal=*/false);
    config.sdc.rate = 1.0 / 800.0;
    config.sdc.verify_cost = 0.5;
    config.sdc.verify_every = 3;
    config.keep_last = 3;
    sim::MonteCarloOptions options;
    options.seed = 20260809;
    expect_equivalent(config, options, 50);
  }
}

TEST(BatchKernel, BitIdenticalWithSilentErrorsWeibull) {
  // Strike stream and Weibull failure stream interleave; the tie-break
  // (strikes first) must agree across engines.
  for (const model::Protocol protocol :
       {model::Protocol::DoubleNbl, model::Protocol::DoubleBof,
        model::Protocol::Triple}) {
    auto config = make_config(protocol, 500.0, 12, 100.0, 5000.0,
                              /*stop_on_fatal=*/false);
    config.sdc.rate = 1.0 / 600.0;
    config.sdc.verify_cost = 1.0;
    config.sdc.verify_every = 2;
    config.keep_last = 2;
    sim::MonteCarloOptions options;
    options.seed = 424243;
    options.weibull =
        util::Weibull::from_mean(0.7, config.params.node_mtbf());
    expect_equivalent(config, options, 50);
  }
}

TEST(BatchKernel, BitIdenticalWithSilentErrorsStopOnFatal) {
  // keep_last=1 makes detected corruption frequently un-rollbackable, so
  // fatal-accept and stop_on_fatal interact with the Verify phase.
  for (const model::Protocol protocol :
       {model::Protocol::DoubleNbl, model::Protocol::Triple}) {
    auto config = make_config(protocol, 400.0, 6, 0.0, 6000.0,
                              /*stop_on_fatal=*/true);
    config.period =
        1.25 * model::min_period(protocol, config.params);
    config.sdc.rate = 1.0 / 400.0;
    config.sdc.verify_cost = 0.25;
    config.sdc.verify_every = 4;
    config.keep_last = 1;
    sim::MonteCarloOptions options;
    options.seed = 31337;
    expect_equivalent(config, options, 80);
  }
}

TEST(BatchKernel, BitIdenticalWithStopOnFatal) {
  // Dense failures on a small platform so fatal buddy hits actually occur;
  // stop_on_fatal exercises the early-return path and fatal_time capture.
  for (const model::Protocol protocol :
       {model::Protocol::DoubleNbl, model::Protocol::Triple}) {
    auto config = make_config(protocol, 120.0, 6, 60.0, 4000.0,
                              /*stop_on_fatal=*/true);
    // mtbf=120 on 6 nodes is so brutal that a hand-picked period sits below
    // min_period; take a feasible one from the model instead.
    config.period =
        1.25 * model::min_period(protocol, config.params);
    sim::MonteCarloOptions options;
    options.seed = 99;
    expect_equivalent(config, options, 80);
  }
}

TEST(BatchKernel, BitIdenticalWithFaultPredictionAllProtocols) {
  // Fault prediction on: per-failure predictor draws, true-alarm leads,
  // Poisson false alarms, Proactive phases and the prediction scoreboard
  // must agree bit-for-bit (prediction disables the fast path).
  for (const model::Protocol protocol : model::kAllProtocols) {
    auto config = make_config(protocol, 500.0, 12, 100.0, 5000.0,
                              /*stop_on_fatal=*/false);
    config.predictor.precision = 0.7;
    config.predictor.recall = 0.6;
    config.predictor.window = 30.0;
    config.predictor.proactive_cost = 2.0;
    sim::MonteCarloOptions options;
    options.seed = 0xabcd;
    expect_equivalent(config, options, 50);
  }
}

TEST(BatchKernel, BitIdenticalWithJustInTimePrediction) {
  // w = 0: every true alarm leads by exactly C_p, the tightest interleaving
  // of Proactive phases with strikes and failures. Verification on too, so
  // alarm > strike > failure tie ordering is fully exercised.
  for (const model::Protocol protocol :
       {model::Protocol::DoubleNbl, model::Protocol::Triple}) {
    auto config = make_config(protocol, 500.0, 12, 100.0, 5000.0,
                              /*stop_on_fatal=*/false);
    config.predictor.precision = 0.5;  // false-alarm heavy
    config.predictor.recall = 0.8;
    config.predictor.window = 0.0;
    config.predictor.proactive_cost = 1.5;
    config.sdc.rate = 1.0 / 800.0;
    config.sdc.verify_cost = 0.5;
    config.sdc.verify_every = 3;
    config.keep_last = 3;
    sim::MonteCarloOptions options;
    options.seed = 0x5eed;
    expect_equivalent(config, options, 50);
  }
}

TEST(BatchKernel, BitIdenticalWithPredictionWeibull) {
  // Per-node Weibull failure streams under prediction: the predictor keys
  // its decision on the pending failure time, which replays after rollbacks
  // -- the decide-once-per-failure-time idempotence must hold identically.
  auto config = make_config(model::Protocol::DoubleNbl, 500.0, 12, 100.0,
                            5000.0, /*stop_on_fatal=*/false);
  config.predictor.precision = 0.9;
  config.predictor.recall = 0.5;
  config.predictor.window = 50.0;
  config.predictor.proactive_cost = 3.0;
  sim::MonteCarloOptions options;
  options.seed = 321;
  options.weibull = util::Weibull::from_mean(0.7, config.params.node_mtbf());
  expect_equivalent(config, options, 50);
}

TEST(BatchKernel, BitIdenticalWithDifferentialCheckpointsAllProtocols) {
  // The dcp axis reshapes the period geometry (shorter exchange parts,
  // longer recovery) before any event fires; both engines must build the
  // same geometry from SimConfig::dcp and stay event-for-event identical.
  for (const model::Protocol protocol : model::kAllProtocols) {
    auto config = make_config(protocol, 500.0, 12, 100.0, 5000.0,
                              /*stop_on_fatal=*/false);
    config.dcp.stack_size = 6;
    config.dcp.dirty_fraction = 0.15;
    config.dcp.hash_overhead = 0.02;
    sim::MonteCarloOptions options;
    options.seed = 909090;
    expect_equivalent(config, options, 50);
  }
}

TEST(BatchKernel, BitIdenticalWithDcpWeibullSdcAndPredictorMix) {
  // The acceptance mix: dirty-fraction geometry composing with clustered
  // (Weibull) failures, silent-error verification and fault prediction in
  // one campaign -- every axis at once, still bit-identical.
  for (const model::Protocol protocol :
       {model::Protocol::DoubleNbl, model::Protocol::Triple}) {
    auto config = make_config(protocol, 500.0, 12, 100.0, 5000.0,
                              /*stop_on_fatal=*/false);
    config.dcp.stack_size = 4;
    config.dcp.dirty_fraction = 0.2;
    config.dcp.hash_overhead = 0.01;
    config.sdc.rate = 1.0 / 700.0;
    config.sdc.verify_cost = 0.5;
    config.sdc.verify_every = 3;
    config.keep_last = 2;
    config.predictor.precision = 0.7;
    config.predictor.recall = 0.5;
    config.predictor.window = 30.0;
    config.predictor.proactive_cost = 2.0;
    sim::MonteCarloOptions options;
    options.seed = 515151;
    options.weibull =
        util::Weibull::from_mean(0.7, config.params.node_mtbf());
    expect_equivalent(config, options, 50);
  }
}

TEST(BatchKernel, BitIdenticalOnFastPathDominatedCampaign) {
  // Sparse failures: long event-free stretches exercise the multi-period
  // fast runs, including their interaction with completion and cap guards.
  const auto config = make_config(model::Protocol::DoubleNbl, 50000.0, 12,
                                  0.0, 200000.0, /*stop_on_fatal=*/false);
  auto cfg = config;
  cfg.period = model::optimal_period_closed_form(cfg.protocol, cfg.params).period;
  sim::MonteCarloOptions options;
  options.seed = 5;
  expect_equivalent(cfg, options, 40);
}

/// Trial counts around the runner's packing rule (64 chunks; a chunk
/// smaller than a 32-lane wave shares a task with its neighbours): one
/// trial, chunks far below a wave, 31-32 trials per chunk, exactly one
/// wave per chunk, and one trial more.
const std::uint64_t kDispatchTrials[] = {1, 33, 400, 2047, 2048, 2049};

/// Campaign options with metrics on, the inputs the dispatch tests vary.
sim::MonteCarloOptions campaign_options(const sim::SimConfig& config,
                                        std::uint64_t trials,
                                        std::size_t threads, bool weibull,
                                        std::uint64_t seed) {
  sim::MonteCarloOptions options;
  options.trials = trials;
  options.threads = threads;
  options.seed = seed;
  options.metrics = sim::MetricsSpec{};
  if (weibull) {
    options.weibull = util::Weibull::from_mean(0.7, config.params.node_mtbf());
  }
  return options;
}

std::string metrics_jsonl(const sim::MonteCarloResult& result) {
  std::ostringstream out;
  sim::write_metrics_jsonl(out, result);
  return out.str();
}

TEST(BatchKernel, ExportedJsonlInvariantAcrossThreadCounts) {
  const auto config = make_config(model::Protocol::Triple, 400.0, 12, 90.0,
                                  8000.0, /*stop_on_fatal=*/false);
  std::vector<std::uint64_t> trial_counts{300};
  trial_counts.insert(trial_counts.end(), std::begin(kDispatchTrials),
                      std::end(kDispatchTrials));
  for (const bool weibull : {false, true}) {
    for (const std::uint64_t trials : trial_counts) {
      std::string reference;
      for (const std::size_t threads : {1, 3, 4}) {
        const auto options =
            campaign_options(config, trials, threads, weibull, 11);
        const std::string dump =
            metrics_jsonl(sim::run_monte_carlo(config, options));
        if (threads == 1) {
          reference = dump;
          continue;
        }
        EXPECT_EQ(dump, reference) << "trials " << trials << ", threads "
                                   << threads << ", weibull " << weibull;
      }
    }
  }
}

TEST(BatchKernel, AggregateMatchesScalarEngineExactly) {
  const auto config = make_config(model::Protocol::DoubleBof, 300.0, 12,
                                  80.0, 6000.0, /*stop_on_fatal=*/false);
  struct Input {
    std::uint64_t trials;
    std::size_t threads;
  };
  std::vector<Input> inputs{{200, 2}};
  for (const std::uint64_t trials : kDispatchTrials) {
    for (const std::size_t threads : {1, 3}) {
      inputs.push_back({trials, threads});
    }
  }
  for (const bool weibull : {false, true}) {
    for (const Input& input : inputs) {
      SCOPED_TRACE("trials " + std::to_string(input.trials) + ", threads " +
                   std::to_string(input.threads) + ", weibull " +
                   std::to_string(weibull));
      auto batched_options = campaign_options(config, input.trials,
                                              input.threads, weibull, 3);
      batched_options.engine = sim::SimEngine::kBatched;
      auto scalar_options = batched_options;
      scalar_options.engine = sim::SimEngine::kScalar;
      const auto b = sim::run_monte_carlo(config, batched_options);
      const auto s = sim::run_monte_carlo(config, scalar_options);
      // Same trials in the same chunk layout through the same Welford adds:
      // the aggregates must agree to the last bit, not within a tolerance.
      EXPECT_EQ(s.waste.mean(), b.waste.mean());
      EXPECT_EQ(s.waste.variance(), b.waste.variance());
      EXPECT_EQ(s.makespan.mean(), b.makespan.mean());
      EXPECT_EQ(s.makespan.min(), b.makespan.min());
      EXPECT_EQ(s.makespan.max(), b.makespan.max());
      EXPECT_EQ(s.failures.sum(), b.failures.sum());
      EXPECT_EQ(s.risk_time.mean(), b.risk_time.mean());
      EXPECT_EQ(s.success.estimate(), b.success.estimate());
      EXPECT_EQ(s.diverged, b.diverged);
      ASSERT_TRUE(s.metrics && b.metrics);
      EXPECT_EQ(s.metrics->slowdown.total_count(),
                b.metrics->slowdown.total_count());
      EXPECT_EQ(s.metrics->slowdown.quantile(0.5),
                b.metrics->slowdown.quantile(0.5));
      EXPECT_EQ(s.metrics->degenerate, b.metrics->degenerate);
      EXPECT_EQ(metrics_jsonl(s), metrics_jsonl(b));
      // Kernel counters populate only through the batched engine.
      EXPECT_EQ(b.kernel.lanes, input.trials);
      EXPECT_GT(b.kernel.waves, 0u);
      EXPECT_EQ(s.kernel.lanes, 0u);
    }
  }
}

TEST(BatchKernel, SmallCampaignPacksChunksIntoFullWaves) {
  const auto config = make_config(model::Protocol::DoubleNbl, 900.0, 12,
                                  90.0, 4000.0, /*stop_on_fatal=*/false);
  sim::MonteCarloOptions options;
  options.seed = 7;
  options.engine = sim::SimEngine::kBatched;
  // 400 trials are 64 chunks of 6-7, far below a 32-lane wave: on one
  // thread they run as one task of 13 waves, not 64 one-wave tasks.
  options.trials = 400;
  options.threads = 1;
  const auto small = sim::run_monte_carlo(config, options);
  EXPECT_EQ(small.kernel.lanes, 400u);
  EXPECT_EQ(small.kernel.waves, 13u);
  // 4000 trials fill a wave per chunk (62-63 trials), so every chunk stays
  // a task of its own: two waves each.
  options.trials = 4000;
  options.threads = 2;
  const auto large = sim::run_monte_carlo(config, options);
  EXPECT_EQ(large.kernel.lanes, 4000u);
  EXPECT_EQ(large.kernel.waves, 128u);
}

struct DrawnPlatform {
  model::Protocol protocol = model::Protocol::DoubleNbl;
  double mtbf = 500.0;
  std::uint64_t nodes = 12;
  double t_base = 5000.0;
  bool stop_on_fatal = false;
  bool weibull = false;
  double shape = 0.7;
  bool sdc = false;
  double sdc_mtbf = 800.0;
  std::uint64_t verify_every = 3;
  std::uint64_t keep_last = 2;
  std::uint64_t seed = 1;
};

TEST(BatchKernel, PropertyBitIdenticalOnRandomPlatforms) {
  proptest::ForallConfig forall_config;
  forall_config.seed = 0xba7c4;
  forall_config.iterations = 60;
  const std::vector<model::Protocol> protocols(model::kAllProtocols.begin(),
                                               model::kAllProtocols.end());
  const std::vector<std::uint64_t> node_choices{6, 12, 24, 48};
  const auto draw = [&](proptest::Gen& gen) {
    DrawnPlatform p;
    p.protocol = gen.element(protocols);
    p.mtbf = gen.log_uniform(60.0, 20000.0);
    p.nodes = gen.element(node_choices);
    p.t_base = gen.log_uniform(500.0, 20000.0);
    p.stop_on_fatal = gen.boolean();
    p.weibull = gen.boolean();
    p.shape = gen.uniform(0.5, 1.5);
    p.sdc = gen.boolean();
    p.sdc_mtbf = gen.log_uniform(100.0, 20000.0);
    p.verify_every = gen.integer(1, 6);
    p.keep_last = gen.integer(1, 4);
    p.seed = gen.integer(1, 1u << 20);
    return p;
  };
  const proptest::Property<DrawnPlatform> property =
      [](const DrawnPlatform& p) -> std::optional<std::string> {
    auto config = make_config(p.protocol, p.mtbf, p.nodes, 0.0, p.t_base,
                              p.stop_on_fatal);
    const auto opt =
        model::optimal_period_closed_form(config.protocol, config.params);
    config.period = opt.period;
    if (p.sdc) {
      config.sdc.rate = 1.0 / p.sdc_mtbf;
      config.sdc.verify_cost = 0.5;
      config.sdc.verify_every = p.verify_every;
      config.keep_last = p.keep_last;
    }
    try {
      config.validate();
    } catch (const std::exception&) {
      return std::nullopt;  // undrawable platform, not a kernel defect
    }
    sim::MonteCarloOptions options;
    options.seed = p.seed;
    if (p.weibull) {
      options.weibull =
          util::Weibull::from_mean(p.shape, config.params.node_mtbf());
    }
    const auto scalar = scalar_trials(config, options, 4);
    const auto batched = batched_trials(config, options, 4);
    for (std::size_t i = 0; i < scalar.size(); ++i) {
      if (auto failure = compare_trial(scalar[i], batched[i], i)) {
        return failure;
      }
    }
    return std::nullopt;
  };
  const proptest::Show<DrawnPlatform> show = [](const DrawnPlatform& p) {
    std::ostringstream out;
    out << "protocol=" << model::protocol_name(p.protocol)
        << " mtbf=" << p.mtbf << " nodes=" << p.nodes
        << " t_base=" << p.t_base << " stop_on_fatal=" << p.stop_on_fatal
        << " weibull=" << p.weibull << " shape=" << p.shape
        << " sdc=" << p.sdc << " sdc_mtbf=" << p.sdc_mtbf
        << " verify_every=" << p.verify_every
        << " keep_last=" << p.keep_last << " seed=" << p.seed;
    return out.str();
  };
  proptest::forall<DrawnPlatform>(forall_config, draw, property, nullptr, show);
}

}  // namespace
