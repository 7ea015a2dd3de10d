// Drives the EvalService directly (no transport): request parsing, answer
// correctness against the model layer, cache-key quantization, error
// records, and the serve_stats counter schema documented in docs/SERVE.md.
#include "sim/service.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>

#include "model/model_api.hpp"
#include "proptest.hpp"
#include "util/json.hpp"

namespace {

using namespace dckpt;

util::JsonValue respond(sim::EvalService& service, const std::string& line) {
  return util::parse_json(service.handle_line(line));
}

TEST(EvalService, AnswersOptimalPeriod) {
  sim::EvalService service;
  const auto v = respond(
      service, "EVAL kind=period protocol=DoubleNBL mtbf=3600 phi-ratio=0.5");
  EXPECT_EQ(v.at("record").as_string(), "eval");
  EXPECT_EQ(v.at("protocol").as_string(), "DoubleNBL");
  EXPECT_FALSE(v.at("cached").as_bool());
  const auto params =
      model::base_scenario().at_phi_ratio(0.5).with_mtbf(3600.0);
  const auto opt = model::optimal_period_closed_form(
      model::Protocol::DoubleNbl, params);
  EXPECT_DOUBLE_EQ(v.at("period").as_number(), opt.period);
  EXPECT_DOUBLE_EQ(v.at("waste").as_number(), opt.waste);
}

TEST(EvalService, WasteMatchesModel) {
  sim::EvalService service;
  const auto v = respond(
      service,
      "EVAL kind=waste protocol=Triple mtbf=7200 phi-ratio=0.25 period=600");
  const auto params =
      model::base_scenario().at_phi_ratio(0.25).with_mtbf(7200.0);
  EXPECT_DOUBLE_EQ(
      v.at("waste").as_number(),
      model::waste(model::Protocol::Triple, params, 600.0));
}

TEST(EvalService, RiskReportsWindowAndSurvival) {
  sim::EvalService service;
  const auto v = respond(
      service, "EVAL kind=risk protocol=Triple mtbf=3600 mission-hours=48");
  EXPECT_GT(v.at("risk_window").as_number(), 0.0);
  const double survival = v.at("success_probability").as_number();
  EXPECT_GT(survival, 0.0);
  EXPECT_LE(survival, 1.0);
  EXPECT_DOUBLE_EQ(v.at("mission_hours").as_number(), 48.0);
}

TEST(EvalService, SecondIdenticalQueryIsCached) {
  sim::EvalService service;
  const std::string line = "EVAL kind=period protocol=Triple mtbf=3600";
  const auto first = respond(service, line);
  const auto second = respond(service, line);
  EXPECT_FALSE(first.at("cached").as_bool());
  EXPECT_TRUE(second.at("cached").as_bool());
  EXPECT_EQ(first.at("period").as_number(), second.at("period").as_number());
  const auto stats = respond(service, "STATS");
  EXPECT_EQ(stats.at("record").as_string(), "serve_stats");
  EXPECT_EQ(stats.at("cache").at("hits").as_number(), 1.0);
}

TEST(EvalService, QuantizationFoldsParameterNoise) {
  sim::EvalService service;
  (void)respond(service, "EVAL kind=period protocol=Triple mtbf=3600");
  // 1e-7 relative jitter is below the %.6g cache-key resolution.
  const auto jittered = respond(
      service, "EVAL kind=period protocol=Triple mtbf=3600.0003");
  EXPECT_TRUE(jittered.at("cached").as_bool());
}

TEST(EvalService, SimRunsBatchedKernelAndCounts) {
  sim::EvalServiceOptions options;
  options.default_trials = 60;
  // This test asserts batched-kernel occupancy specifically, so pin the
  // engine: under DCKPT_ENGINE=scalar the default would (correctly) leave
  // the kernel counters at zero.
  options.engine = sim::SimEngine::kBatched;
  sim::EvalService service(options);
  const auto v = respond(service,
                         "EVAL kind=sim protocol=DoubleNBL scenario=base "
                         "mtbf=900 nodes=12 tbase=5000 period=100");
  ASSERT_EQ(v.at("record").as_string(), "eval") << service.handle_line(
      "EVAL kind=sim mtbf=900 nodes=12 tbase=5000 period=100");
  EXPECT_EQ(v.at("trials").as_number(), 60.0);
  const double waste = v.at("waste_mean").as_number();
  EXPECT_GT(waste, 0.0);
  EXPECT_LT(waste, 1.0);
  EXPECT_GT(service.kernel_stats().lanes, 0u);
  const auto stats = respond(service, "STATS");
  EXPECT_EQ(stats.at("sim_trials").as_number(), 60.0);
  EXPECT_GT(stats.at("kernel").at("occupancy").as_number(), 0.0);
}

TEST(EvalService, SimResultsAreCachedBySeed) {
  sim::EvalServiceOptions options;
  options.default_trials = 40;
  sim::EvalService service(options);
  const std::string line =
      "EVAL kind=sim protocol=Triple mtbf=900 nodes=12 tbase=4000 "
      "period=90 seed=7";
  const auto first = respond(service, line);
  const auto second = respond(service, line);
  EXPECT_FALSE(first.at("cached").as_bool());
  EXPECT_TRUE(second.at("cached").as_bool());
  // The cached answer replays; the kernel must not have run twice.
  const auto stats = respond(service, "STATS");
  EXPECT_EQ(stats.at("sim_trials").as_number(), 40.0);
}

TEST(EvalService, ErrorsAreRecordsNotThrows) {
  sim::EvalService service;
  EXPECT_EQ(respond(service, "EVAL kind=nonsense").at("record").as_string(),
            "eval_error");
  EXPECT_EQ(respond(service, "EVAL protocol=Triple").at("record").as_string(),
            "eval_error");
  EXPECT_EQ(respond(service, "EVAL kind=waste mtbf=banana")
                .at("record")
                .as_string(),
            "eval_error");
  EXPECT_EQ(respond(service, "FROBNICATE").at("record").as_string(),
            "eval_error");
  EXPECT_EQ(
      respond(service, "EVAL kind=sim trials=999999999").at("record").as_string(),
      "eval_error");
  const auto stats = respond(service, "STATS");
  EXPECT_EQ(stats.at("errors").as_number(), 5.0);
  EXPECT_EQ(stats.at("requests").as_number(), 6.0);
}

TEST(EvalService, ErrorRecordsCarryTypedCodes) {
  sim::EvalService service;
  // Taxonomy documented in docs/SERVE.md: every eval_error names a machine
  // readable code so clients can branch without string-matching messages.
  EXPECT_EQ(respond(service, "EVAL kind=nonsense").at("code").as_string(),
            "parse");
  EXPECT_EQ(respond(service, "FROBNICATE").at("code").as_string(), "parse");
  EXPECT_EQ(respond(service, "EVAL kind=sim trials=999999999")
                .at("code")
                .as_string(),
            "limit");
  EXPECT_EQ(respond(service, "EVAL kind=sim nodes=999999")
                .at("code")
                .as_string(),
            "limit");
}

TEST(EvalService, RejectsNonFiniteAndNonCastableNumerics) {
  sim::EvalService service;
  // A negative double cast to an unsigned is UB; nan/inf pass std::stod;
  // a fractional count would be truncated. All of these must come back as
  // typed parse errors, never as garbage answers or sanitizer traps.
  const char* bad[] = {
      "EVAL kind=sim protocol=Triple mtbf=900 tbase=4000 period=90 seed=-1",
      "EVAL kind=sim protocol=Triple mtbf=900 tbase=4000 period=90 trials=nan",
      "EVAL kind=period protocol=Triple mtbf=inf",
      "EVAL kind=period protocol=Triple mtbf=-inf",
      "EVAL kind=waste protocol=Triple mtbf=3600 period=nan",
      "EVAL kind=sim protocol=Triple mtbf=900 tbase=4000 period=90 trials=-5",
      "EVAL kind=sim protocol=Triple mtbf=900 tbase=4000 period=90 "
      "nodes=1e300",
      "EVAL kind=waste protocol=Triple mtbf=3600 period=-10",
      // Fractional counts were truncated: a 0-trial campaign, seed 1 under
      // a second cache key, 100 nodes.
      "EVAL kind=sim protocol=Triple mtbf=900 tbase=4000 period=90 "
      "trials=0.5",
      "EVAL kind=sim protocol=Triple mtbf=900 tbase=4000 period=90 seed=1.5",
      "EVAL kind=sim protocol=Triple mtbf=900 tbase=4000 period=90 "
      "nodes=100.5",
  };
  for (const char* line : bad) {
    const auto v = respond(service, line);
    EXPECT_EQ(v.at("record").as_string(), "eval_error") << line;
    EXPECT_EQ(v.at("code").as_string(), "parse") << line;
  }
}

TEST(EvalService, MalformedRequestsNameTheirFault) {
  sim::EvalService service;
  const std::pair<const char*, const char*> cases[] = {
      {"EVAL kind=waste mtbf", "expected key=value, got 'mtbf'"},
      {"EVAL kind=waste =3600", "expected key=value, got '=3600'"},
      {"EVAL kind=waste colour=blue", "unknown key 'colour'"},
      {"EVAL kind=waste scenario=mars", "scenario must be base or exa"},
      {"EVAL mtbf=3600", "missing kind="},
  };
  for (const auto& [line, message] : cases) {
    const auto v = respond(service, line);
    EXPECT_EQ(v.at("record").as_string(), "eval_error") << line;
    EXPECT_EQ(v.at("code").as_string(), "parse") << line;
    EXPECT_NE(v.at("error").as_string().find(message), std::string::npos)
        << line << ": " << v.at("error").as_string();
  }
}

TEST(EvalService, StalledPlatformNeedsAnExplicitPeriod) {
  // At M = 15 s no period makes progress (the paper's Sec. VI-A), so the
  // closed-form optimum cannot stand in for a missing period=.
  sim::EvalService service;
  const auto v = respond(service, "EVAL kind=waste protocol=Triple mtbf=15");
  EXPECT_EQ(v.at("record").as_string(), "eval_error");
  EXPECT_NE(v.at("error").as_string().find("pass period= explicitly"),
            std::string::npos)
      << v.at("error").as_string();
}

TEST(EvalService, SimHonoursTheWeibullShape) {
  sim::EvalServiceOptions options;
  options.default_trials = 40;
  sim::EvalService service(options);
  const std::string line =
      "EVAL kind=sim protocol=DoubleNBL mtbf=900 nodes=12 tbase=5000 "
      "period=100 seed=3";
  const auto exponential = respond(service, line);
  const auto weibull = respond(service, line + " weibull-shape=0.5");
  ASSERT_EQ(exponential.at("record").as_string(), "eval");
  ASSERT_EQ(weibull.at("record").as_string(), "eval");
  EXPECT_NE(weibull.at("waste_mean").as_number(),
            exponential.at("waste_mean").as_number());
  // The shape is part of the cache key: the second query was not a hit.
  EXPECT_EQ(respond(service, "STATS").at("cache").at("hits").as_number(),
            0.0);
}

TEST(EvalService, HostileCorpusAnswersParseErrors) {
  sim::EvalService service;
  const auto parse_error = [&](const std::string& line) {
    const auto v = respond(service, line);
    return v.at("record").as_string() == "eval_error" &&
           v.at("code").as_string() == "parse";
  };
  // A count key rejects every token; a real key takes the 25-digit integer
  // (a finite MTBF). "+5" and "0x10" used to be read as 5 and 16.
  const proptest::Property<std::string> property =
      [&](const std::string& token) -> std::optional<std::string> {
    if (!parse_error("EVAL kind=period seed=" + token)) return "as seed";
    const bool real = token.size() != 25;
    if (real && !parse_error("EVAL kind=period mtbf=" + token)) {
      return "as mtbf";
    }
    return std::nullopt;
  };
  proptest::forall_tokens(proptest::hostile_number_tokens(), property);
}

TEST(EvalService, ClassifiesRequestsForAdmissionControl) {
  sim::EvalServiceOptions options;
  options.default_trials = 20;
  sim::EvalService service(options);
  using RequestClass = sim::EvalService::RequestClass;
  // Closed-form kinds, malformed lines, and non-EVAL verbs are light: the
  // transport answers them inline and only uncached sims hit the bounded
  // queue.
  EXPECT_EQ(service.classify_line("EVAL kind=period protocol=Triple mtbf=3600"),
            RequestClass::kLight);
  EXPECT_EQ(service.classify_line("STATS"), RequestClass::kLight);
  EXPECT_EQ(service.classify_line("EVAL kind=banana"), RequestClass::kLight);
  EXPECT_EQ(service.classify_line("EVAL kind=sim trials=nan"),
            RequestClass::kLight);
  const std::string sim_request =
      "EVAL kind=sim protocol=Triple mtbf=900 nodes=12 tbase=4000 "
      "period=90 seed=3";
  EXPECT_EQ(service.classify_line(sim_request), RequestClass::kHeavy);
  (void)respond(service, sim_request);
  // Once answered it is cached, hence light -- and the classification
  // probe itself must not have perturbed the hit/miss counters.
  EXPECT_EQ(service.classify_line(sim_request), RequestClass::kLight);
  const auto stats = respond(service, "STATS");
  EXPECT_EQ(stats.at("cache").at("hits").as_number(), 0.0);
}

TEST(EvalService, StatsCarryServerCountersFromTransport) {
  sim::EvalService service;
  // Without a transport the server block is all zeros (stdin mode)...
  const auto idle = respond(service, "STATS");
  EXPECT_EQ(idle.at("server").at("shed").as_number(), 0.0);
  EXPECT_EQ(idle.at("server").at("accepted").as_number(), 0.0);
  // ...and with one registered, STATS mirrors the live counters.
  sim::ServerCounters counters;
  counters.accepted = 3;
  counters.shed = 2;
  counters.overlong_lines = 1;
  counters.peak_connections = 3;
  service.set_transport_counters(&counters);
  const auto live = respond(service, "STATS");
  EXPECT_EQ(live.at("server").at("accepted").as_number(), 3.0);
  EXPECT_EQ(live.at("server").at("shed").as_number(), 2.0);
  EXPECT_EQ(live.at("server").at("overlong_lines").as_number(), 1.0);
  service.set_transport_counters(nullptr);
  const auto detached = respond(service, "STATS");
  EXPECT_EQ(detached.at("server").at("accepted").as_number(), 0.0);
}

TEST(EvalService, QuitYieldsByeRecord) {
  sim::EvalService service;
  EXPECT_EQ(respond(service, "QUIT").at("record").as_string(), "bye");
}

TEST(EvalService, StatsLatencyAppearsAfterRequests) {
  sim::EvalService service;
  (void)respond(service, "EVAL kind=period protocol=Triple mtbf=3600");
  const auto stats = respond(service, "STATS");
  const auto& latency = stats.at("latency");
  EXPECT_GE(latency.at("count").as_number(), 1.0);
  EXPECT_GE(latency.at("p99_us").as_number(), latency.at("p50_us").as_number());
  EXPECT_GE(latency.at("p50_us").as_number(), 0.0);
}

TEST(EvalService, OptionsAreValidated) {
  sim::EvalServiceOptions zero_cache;
  zero_cache.cache_capacity = 0;
  EXPECT_THROW(sim::EvalService{zero_cache}, std::invalid_argument);
  sim::EvalServiceOptions bad_trials;
  bad_trials.default_trials = 100;
  bad_trials.max_trials = 10;
  EXPECT_THROW(sim::EvalService{bad_trials}, std::invalid_argument);
}

}  // namespace
