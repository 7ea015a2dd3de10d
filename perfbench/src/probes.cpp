// Direct micro-probes: the util layer's RNG and samplers, and the model's
// closed-form answers (what a light serve request computes). They run in
// every traced run; each value is the median of several timed batches.
#include <array>
#include <atomic>

#include "bench.hpp"
#include "model/model_api.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using dckpt::model::Protocol;

constexpr int kBatches = 7;

// Results are folded in here so the timed loops cannot be optimized away.
std::atomic<double> g_sink{0.0};

template <typename Body>
double median_batch_ns(Tracer& tracer, const char* span, std::size_t per_batch,
                       Body&& body) {
  std::vector<double> ns_per_item;
  for (int batch = 0; batch < kBatches; ++batch) {
    const auto start = Clock::now();
    {
      Scope scope(&tracer, span);
      body();
    }
    ns_per_item.push_back(seconds_since(start) * 1e9 /
                          static_cast<double>(per_batch));
  }
  return median(ns_per_item);
}

}  // namespace

void probe_util(Tracer& tracer, Outcome& out) {
  dckpt::util::Xoshiro256ss rng(0x5eed);
  std::vector<std::uint64_t> words(4096);
  constexpr std::size_t kFills = 256;
  const double fill_ns = median_batch_ns(
      tracer, "util.rng.fill", kFills * words.size(), [&] {
        std::uint64_t acc = 0;
        for (std::size_t i = 0; i < kFills; ++i) {
          rng.fill(words.data(), words.size());
          acc ^= words[i % words.size()];
        }
        g_sink = g_sink + static_cast<double>(acc & 0xff);
      });
  out.metric("util.rng.fill_ns_per_word", fill_ns, "ns");

  constexpr std::size_t kSamples = 1 << 20;
  const auto exponential = dckpt::util::Exponential::from_mean(86400.0);
  const double exp_ns = median_batch_ns(
      tracer, "util.distributions.exponential", kSamples, [&] {
        double acc = 0.0;
        for (std::size_t i = 0; i < kSamples; ++i) acc += exponential.sample(rng);
        g_sink = g_sink + acc;
      });
  out.metric("util.distributions.exponential_ns", exp_ns, "ns");

  const auto weibull = dckpt::util::Weibull::from_mean(0.7, 86400.0);
  const double weibull_ns = median_batch_ns(
      tracer, "util.distributions.weibull", kSamples, [&] {
        double acc = 0.0;
        for (std::size_t i = 0; i < kSamples; ++i) acc += weibull.sample(rng);
        g_sink = g_sink + acc;
      });
  out.metric("util.distributions.weibull_ns", weibull_ns, "ns");
}

void probe_model(Tracer& tracer, Outcome& out) {
  // The closed forms a light serve request evaluates, over the parameter
  // grid the serve-mixed key pool draws from.
  constexpr std::array kProtocols = {Protocol::DoubleBlocking, Protocol::DoubleNbl,
                                     Protocol::DoubleBof, Protocol::Triple,
                                     Protocol::TripleBof};
  constexpr std::array kMtbfs = {7200.0, 14400.0, 25200.0, 43200.0, 86400.0};
  constexpr std::array kPhis = {0.1, 0.25, 0.5, 1.0};
  std::vector<std::pair<Protocol, dckpt::model::Parameters>> grid;
  for (const Protocol p : kProtocols) {
    for (const double mtbf : kMtbfs) {
      for (const double phi : kPhis) {
        grid.emplace_back(
            p, dckpt::model::base_scenario().at_phi_ratio(phi).with_mtbf(mtbf));
      }
    }
  }
  constexpr std::size_t kRounds = 40;
  const std::size_t answers = kRounds * grid.size() * 3;
  const double ns = median_batch_ns(tracer, "model.closed_form", answers, [&] {
    double acc = 0.0;
    for (std::size_t round = 0; round < kRounds; ++round) {
      for (const auto& [protocol, params] : grid) {
        // kind=waste, kind=period and kind=risk, in that order.
        const auto opt =
            dckpt::model::optimal_period_closed_form(protocol, params);
        acc += dckpt::model::waste(protocol, params, opt.period) +
               dckpt::model::min_period(protocol, params);
        acc += dckpt::model::optimal_period_closed_form(protocol, params).waste;
        acc += dckpt::model::risk_window(protocol, params) +
               dckpt::model::success_probability(protocol, params, 86400.0);
      }
    }
    g_sink = g_sink + acc;
  });
  out.metric("model.closed_form_us", ns * 1e-3, "us");
}

}  // namespace perfbench
