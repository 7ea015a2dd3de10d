#include "sim/export.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "model/scenario.hpp"
#include "util/json.hpp"

namespace {

using namespace dckpt;
using namespace dckpt::sim;
using dckpt::util::JsonValue;
using dckpt::util::parse_json;
using dckpt::util::parse_jsonl;

// ------------------------------------------------------------- JSON core

TEST(JsonTest, ScalarRoundTrip) {
  EXPECT_DOUBLE_EQ(parse_json("1.5").as_number(), 1.5);
  EXPECT_DOUBLE_EQ(parse_json("-3e-7").as_number(), -3e-7);
  EXPECT_TRUE(parse_json("true").as_bool());
  EXPECT_EQ(parse_json("\"a\\\"b\\nc\"").as_string(), "a\"b\nc");
  EXPECT_EQ(parse_json("null").type(), JsonValue::Type::Null);
}

TEST(JsonTest, ShortestRoundTripNumbers) {
  // The exact values that motivated to_chars: full double precision.
  for (double x : {0.1, 1.0 / 3.0, 6.02214076e23, 1e-300, 12345.678901234567}) {
    EXPECT_EQ(parse_json(JsonValue(x).dump()).as_number(), x);
  }
}

TEST(JsonTest, NestedDocumentRoundTrip) {
  auto doc = JsonValue::object();
  doc.set("name", "waste histogram");
  doc.set("n", 3);
  auto arr = JsonValue::array();
  arr.push_back(1.0);
  arr.push_back(2.5);
  doc.set("bins", std::move(arr));
  const JsonValue back = parse_json(doc.dump());
  EXPECT_EQ(back.at("name").as_string(), "waste histogram");
  EXPECT_DOUBLE_EQ(back.at("n").as_number(), 3.0);
  ASSERT_EQ(back.at("bins").size(), 2u);
  EXPECT_DOUBLE_EQ(back.at("bins").items()[1].as_number(), 2.5);
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_THROW(parse_json("{"), std::invalid_argument);
  EXPECT_THROW(parse_json("1.5 garbage"), std::invalid_argument);
  EXPECT_THROW(parse_json("{\"a\":}"), std::invalid_argument);
  EXPECT_THROW(parse_json("tru"), std::invalid_argument);
}

TEST(JsonTest, ParseJsonlSkipsBlankLines) {
  const auto docs = parse_jsonl("{\"a\":1}\n\n{\"a\":2}\n");
  ASSERT_EQ(docs.size(), 2u);
  EXPECT_DOUBLE_EQ(docs[1].at("a").as_number(), 2.0);
}

TEST(JsonTest, DumpEscapesQuotesBackslashesAndControlCharacters) {
  const std::string text = "a\"b\\c\nd\te\rf\x01g";
  const std::string dumped = JsonValue(text).dump();
  EXPECT_EQ(dumped, "\"a\\\"b\\\\c\\nd\\te\\rf\\u0001g\"");
  EXPECT_EQ(parse_json(dumped).as_string(), text);
}

TEST(JsonTest, ParsesEveryEscapeSequence) {
  EXPECT_EQ(parse_json(R"("\"\\\/\n\t\r\b\fA")").as_string(),
            "\"\\/\n\t\r\b\fA");
}

TEST(JsonTest, RejectsMalformedEscapes) {
  // A short and a non-hex unicode escape, a non-ASCII code point, an
  // unknown escape, and a string or escape cut off by the end of the text.
  EXPECT_THROW(parse_json(R"("\u12")"), std::invalid_argument);
  EXPECT_THROW(parse_json(R"("\uZZZZ")"), std::invalid_argument);
  EXPECT_THROW(parse_json(R"("\u00e9")"), std::invalid_argument);
  EXPECT_THROW(parse_json(R"("\q")"), std::invalid_argument);
  EXPECT_THROW(parse_json("\"abc"), std::invalid_argument);
  EXPECT_THROW(parse_json("\"abc\\"), std::invalid_argument);
}

TEST(JsonTest, NonFiniteNumbersDumpAsNull) {
  // JSON has no Inf or NaN literal.
  EXPECT_EQ(JsonValue(std::numeric_limits<double>::infinity()).dump(),
            "null");
  EXPECT_EQ(JsonValue(std::nan("")).dump(), "null");
  auto doc = JsonValue::object();
  doc.set("x", -std::numeric_limits<double>::infinity());
  EXPECT_EQ(doc.dump(), "{\"x\":null}");
}

TEST(JsonTest, NullAndEmptyContainersRoundTrip) {
  EXPECT_EQ(JsonValue().dump(), "null");
  for (const char* text : {"[]", "{}", "[null,1]", "{\"a\":[],\"b\":{}}"}) {
    EXPECT_EQ(parse_json(text).dump(), text);
  }
  EXPECT_EQ(parse_json(" [ ] ").size(), 0u);
  EXPECT_EQ(parse_json(" { } ").size(), 0u);
}

TEST(JsonTest, AccessorsRejectTheWrongType) {
  const JsonValue number(1.0);
  const JsonValue text("x");
  auto array = JsonValue::array();
  auto object = JsonValue::object();
  EXPECT_THROW(text.as_number(), std::invalid_argument);
  EXPECT_THROW(number.as_bool(), std::invalid_argument);
  EXPECT_THROW(JsonValue(true).as_string(), std::invalid_argument);
  EXPECT_THROW(object.items(), std::invalid_argument);
  EXPECT_THROW(array.members(), std::invalid_argument);
  EXPECT_THROW(array.at("k"), std::invalid_argument);
  EXPECT_THROW(object.push_back(1), std::invalid_argument);
  EXPECT_THROW(array.set("k", 1), std::invalid_argument);
  try {
    number.size();
    FAIL() << "a number has no size";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(), "JsonValue: not a container");
  }
}

TEST(JsonTest, MissingKeyIsOutOfRangeAndNamed) {
  auto doc = JsonValue::object();
  doc.set("present", 1);
  EXPECT_TRUE(doc.contains("present"));
  EXPECT_FALSE(doc.contains("absent"));
  EXPECT_FALSE(JsonValue(1.0).contains("present"));
  try {
    doc.at("absent");
    FAIL() << "at() returned a missing key";
  } catch (const std::out_of_range& error) {
    EXPECT_NE(std::string(error.what()).find("'absent'"), std::string::npos);
  }
}

// ----------------------------------------------------------- round trips

SimConfig quick_config() {
  SimConfig config;
  config.protocol = model::Protocol::DoubleNbl;
  config.params = model::base_scenario().params.with_overhead(1.0);
  config.params.nodes = 12;
  config.params.mtbf = 500.0;
  config.period = 100.0;
  config.t_base = 5000.0;
  config.stop_on_fatal = false;
  return config;
}

MonteCarloResult quick_result() {
  MonteCarloOptions options;
  options.trials = 30;
  options.threads = 2;
  options.metrics = MetricsSpec{};
  return run_monte_carlo(quick_config(), options);
}

void expect_stats_match(const JsonValue& json,
                        const dckpt::util::RunningStats& stats) {
  EXPECT_DOUBLE_EQ(json.at("count").as_number(),
                   static_cast<double>(stats.count()));
  ASSERT_GT(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(json.at("mean").as_number(), stats.mean());
  EXPECT_DOUBLE_EQ(json.at("stddev").as_number(), stats.stddev());
  EXPECT_DOUBLE_EQ(json.at("min").as_number(), stats.min());
  EXPECT_DOUBLE_EQ(json.at("max").as_number(), stats.max());
}

void expect_histogram_match(const JsonValue& json,
                            const dckpt::util::Histogram& histogram) {
  EXPECT_DOUBLE_EQ(json.at("lo").as_number(), histogram.lo());
  EXPECT_DOUBLE_EQ(json.at("hi").as_number(), histogram.hi());
  EXPECT_EQ(json.at("underflow").as_number(),
            static_cast<double>(histogram.underflow()));
  EXPECT_EQ(json.at("overflow").as_number(),
            static_cast<double>(histogram.overflow()));
  EXPECT_EQ(json.at("nonfinite").as_number(),
            static_cast<double>(histogram.nonfinite()));
  ASSERT_EQ(json.at("counts").size(), histogram.bin_count());
  for (std::size_t i = 0; i < histogram.bin_count(); ++i) {
    EXPECT_DOUBLE_EQ(json.at("counts").items()[i].as_number(),
                     static_cast<double>(histogram.bin(i)))
        << "bin " << i;
  }
}

TEST(ExportTest, MetricsRecordRoundTrip) {
  const auto result = quick_result();
  std::ostringstream out;
  write_metrics_jsonl(out, result);
  const auto docs = parse_jsonl(out.str());
  ASSERT_EQ(docs.size(), 1u);
  const JsonValue& record = docs[0];

  EXPECT_EQ(record.at("record").as_string(), "monte_carlo");
  EXPECT_DOUBLE_EQ(record.at("trials").as_number(), 30.0);
  EXPECT_DOUBLE_EQ(record.at("diverged").as_number(),
                   static_cast<double>(result.diverged));
  expect_stats_match(record.at("waste"), result.waste);
  expect_stats_match(record.at("makespan"), result.makespan);
  expect_stats_match(record.at("failures"), result.failures);
  expect_stats_match(record.at("risk_time"), result.risk_time);
  EXPECT_DOUBLE_EQ(record.at("success").at("estimate").as_number(),
                   result.success.estimate());
  ASSERT_TRUE(record.contains("histograms"));
  ASSERT_TRUE(result.metrics.has_value());
  expect_histogram_match(record.at("histograms").at("waste"),
                         result.metrics->waste);
  expect_histogram_match(record.at("histograms").at("slowdown"),
                         result.metrics->slowdown);
  expect_histogram_match(record.at("histograms").at("failures"),
                         result.metrics->failures);
  expect_histogram_match(record.at("histograms").at("risk_fraction"),
                         result.metrics->risk_fraction);
}

TEST(ExportTest, MetricsRecordOmitsHistogramsWhenDisabled) {
  MonteCarloOptions options;
  options.trials = 10;
  options.threads = 2;
  const auto result = run_monte_carlo(quick_config(), options);
  const JsonValue record = to_json(result);
  EXPECT_FALSE(record.contains("histograms"));
}

TEST(ExportTest, SweepTableRoundTrip) {
  SweepSpec spec;
  spec.protocols = {model::Protocol::DoubleNbl, model::Protocol::Triple};
  spec.mtbfs = {1200.0};
  spec.phi_ratios = {0.25};
  spec.config.params = model::base_scenario().params;
  spec.config.params.nodes = 12;
  spec.t_base_in_mtbfs = 10.0;
  spec.trials = 15;
  spec.threads = 2;
  spec.metrics = MetricsSpec{};
  const auto rows = run_sweep(spec);
  ASSERT_EQ(rows.size(), 2u);

  std::ostringstream out;
  write_sweep_jsonl(out, rows);
  const auto docs = parse_jsonl(out.str());
  ASSERT_EQ(docs.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const JsonValue& record = docs[i];
    EXPECT_EQ(record.at("record").as_string(), "sweep_point");
    EXPECT_EQ(record.at("protocol").as_string(),
              model::protocol_name(rows[i].protocol));
    EXPECT_DOUBLE_EQ(record.at("mtbf").as_number(), rows[i].mtbf);
    EXPECT_DOUBLE_EQ(record.at("phi").as_number(), rows[i].phi);
    EXPECT_DOUBLE_EQ(record.at("period").as_number(), rows[i].period);
    EXPECT_DOUBLE_EQ(record.at("model_waste").as_number(),
                     rows[i].model_waste);
    expect_stats_match(record.at("sim").at("waste"), rows[i].result.waste);
    ASSERT_TRUE(rows[i].result.metrics.has_value());
    expect_histogram_match(record.at("sim").at("histograms").at("waste"),
                           rows[i].result.metrics->waste);
  }
}

TEST(ExportTest, TraceRoundTrip) {
  Trace trace(true);
  auto config = quick_config();
  config.t_base = 1000.0;
  simulate_exponential(config, 7, &trace);
  ASSERT_FALSE(trace.events().empty());

  std::ostringstream out;
  write_trace_jsonl(out, trace);
  const auto docs = parse_jsonl(out.str());
  ASSERT_EQ(docs.size(), trace.events().size());
  for (std::size_t i = 0; i < docs.size(); ++i) {
    const TraceEvent& event = trace.events()[i];
    EXPECT_EQ(docs[i].at("record").as_string(), "trace_event");
    EXPECT_DOUBLE_EQ(docs[i].at("time").as_number(), event.time);
    const auto kind = parse_trace_kind_id(docs[i].at("kind").as_string());
    ASSERT_TRUE(kind.has_value()) << docs[i].at("kind").as_string();
    EXPECT_EQ(*kind, event.kind);
    EXPECT_DOUBLE_EQ(docs[i].at("node").as_number(),
                     static_cast<double>(event.node));
    EXPECT_DOUBLE_EQ(docs[i].at("work").as_number(), event.work_level);
  }
}

TEST(ExportTest, TraceKindIdsAreStableAndParseable) {
  // Exported ids are a compatibility contract: spot-check the exact strings.
  EXPECT_STREQ(trace_kind_id(TraceKind::Failure), "failure");
  EXPECT_STREQ(trace_kind_id(TraceKind::FatalFailure), "fatal_failure");
  EXPECT_STREQ(trace_kind_id(TraceKind::RiskWindowOpen), "risk_window_open");
  for (auto kind :
       {TraceKind::PeriodStart, TraceKind::LocalCheckpointDone,
        TraceKind::RemoteExchangeDone, TraceKind::PreferredCopyDone,
        TraceKind::Failure, TraceKind::Rollback, TraceKind::DowntimeEnd,
        TraceKind::RecoveryEnd, TraceKind::ReexecutionEnd,
        TraceKind::RiskWindowOpen, TraceKind::RiskWindowClose,
        TraceKind::FatalFailure, TraceKind::ApplicationDone,
        TraceKind::Alarm, TraceKind::ProactiveCommit}) {
    const auto parsed = parse_trace_kind_id(trace_kind_id(kind));
    ASSERT_TRUE(parsed.has_value()) << trace_kind_id(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(parse_trace_kind_id("no_such_event").has_value());
}

TEST(ExportTest, SaveFunctionsRejectBadPath) {
  const auto result = quick_result();
  EXPECT_THROW(save_metrics_jsonl("/nonexistent-dir/x.jsonl", result),
               std::runtime_error);
}

TEST(ExportTest, SaveJsonlWritesOneParseableLinePerValue) {
  std::vector<JsonValue> lines;
  for (int i = 0; i < 3; ++i) {
    auto doc = JsonValue::object();
    doc.set("record", "probe");
    doc.set("i", i);
    lines.push_back(std::move(doc));
  }
  const std::string path = ::testing::TempDir() + "save_jsonl_probe.jsonl";
  save_jsonl(path, lines);
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
  const auto back = parse_jsonl(text);
  ASSERT_EQ(back.size(), lines.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].dump(), lines[i].dump());
  }
  std::remove(path.c_str());
  EXPECT_THROW(save_jsonl("/nonexistent-dir/x.jsonl", lines),
               std::runtime_error);
}

// ---------------------------------------------------------- determinism

TEST(ExportTest, HistogramMergeIsThreadCountInvariant) {
  // The chunk count (and therefore the histogram merge order) depends on
  // the thread count; bin counts are integers, so the merged histograms
  // must be bit-identical regardless.
  MonteCarloOptions one;
  one.trials = 64;
  one.threads = 1;
  one.seed = 99;
  one.metrics = MetricsSpec{};
  MonteCarloOptions many = one;
  many.threads = 5;
  const auto a = run_monte_carlo(quick_config(), one);
  const auto b = run_monte_carlo(quick_config(), many);
  ASSERT_TRUE(a.metrics && b.metrics);
  const auto expect_same = [](const dckpt::util::Histogram& ha,
                              const dckpt::util::Histogram& hb) {
    ASSERT_EQ(ha.bin_count(), hb.bin_count());
    for (std::size_t i = 0; i < ha.bin_count(); ++i) {
      EXPECT_EQ(ha.bin(i), hb.bin(i)) << "bin " << i;
    }
    EXPECT_EQ(ha.underflow(), hb.underflow());
    EXPECT_EQ(ha.overflow(), hb.overflow());
    EXPECT_EQ(ha.nonfinite(), hb.nonfinite());
    EXPECT_EQ(ha.total_count(), hb.total_count());
  };
  expect_same(a.metrics->waste, b.metrics->waste);
  expect_same(a.metrics->slowdown, b.metrics->slowdown);
  expect_same(a.metrics->failures, b.metrics->failures);
  expect_same(a.metrics->risk_fraction, b.metrics->risk_fraction);
  // And the serialized histogram blocks agree byte-for-byte.
  EXPECT_EQ(to_json(a).at("histograms").dump(),
            to_json(b).at("histograms").dump());
}

TEST(ExportTest, MetricsJsonlIsThreadCountInvariant) {
  // Full-line determinism, not just histograms: the exported JSONL record
  // (running stats, success counts, everything) must be byte-identical at
  // 1, 2, and 8 threads. Trial i always draws from the same per-trial seed,
  // and merges happen in trial order, so thread count only changes who runs
  // which chunk -- never the numbers.
  std::string reference;
  for (const std::uint64_t threads : {1u, 2u, 8u}) {
    MonteCarloOptions options;
    options.trials = 48;
    options.threads = threads;
    options.seed = 0x5eed;
    options.metrics = MetricsSpec{};
    const auto result = run_monte_carlo(quick_config(), options);
    std::ostringstream out;
    write_metrics_jsonl(out, result);
    if (reference.empty()) {
      reference = out.str();
      ASSERT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(out.str(), reference) << "threads=" << threads;
    }
  }
}

}  // namespace
