#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "model/spares.hpp"
#include "proptest.hpp"

namespace {

using dckpt::util::CliParser;

CliParser make_parser() {
  CliParser parser("prog", "test program");
  parser.add_option("mtbf", "3600", "platform MTBF in seconds");
  parser.add_option("protocol", "triple", "protocol name");
  parser.add_flag("verbose", "chatty output");
  return parser;
}

/// A parser holding `value` for one option `name`.
CliParser parser_with(const std::string& name, const std::string& value) {
  CliParser parser("prog", "test program");
  parser.add_option(name, "0", "under test");
  const std::string arg = "--" + name + "=" + value;
  const std::array argv = {"prog", arg.c_str()};
  EXPECT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  return parser;
}

TEST(CliParserTest, DefaultsApply) {
  auto parser = make_parser();
  const std::array argv = {"prog"};
  ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(parser.get("mtbf"), "3600");
  EXPECT_DOUBLE_EQ(parser.get_double("mtbf"), 3600.0);
  EXPECT_EQ(parser.get_count("mtbf"), 3600u);
  EXPECT_FALSE(parser.get_flag("verbose"));
}

TEST(CliParserTest, SpaceSeparatedValue) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--mtbf", "60"};
  ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(parser.get_count("mtbf"), 60u);
}

TEST(CliParserTest, EqualsSeparatedValue) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--protocol=doublenbl"};
  ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(parser.get("protocol"), "doublenbl");
}

TEST(CliParserTest, FlagPresence) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--verbose"};
  ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_TRUE(parser.get_flag("verbose"));
}

TEST(CliParserTest, PositionalArguments) {
  auto parser = make_parser();
  const std::array argv = {"prog", "pos1", "--mtbf", "10", "pos2"};
  ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  ASSERT_EQ(parser.positional().size(), 2u);
  EXPECT_EQ(parser.positional()[0], "pos1");
  EXPECT_EQ(parser.positional()[1], "pos2");
}

// A malformed command line exits 2 from parse() itself: every tool's
// `if (!cli.parse(argc, argv)) return 0;` used to turn it into exit 0.
TEST(CliParserTest, UnknownOptionFails) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--bogus", "1"};
  EXPECT_EXIT(parser.parse(static_cast<int>(argv.size()), argv.data()),
              testing::ExitedWithCode(2), "prog: unknown option --bogus");
}

TEST(CliParserTest, MissingValueFails) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--mtbf"};
  EXPECT_EXIT(parser.parse(static_cast<int>(argv.size()), argv.data()),
              testing::ExitedWithCode(2), "prog: option --mtbf needs a value");
}

TEST(CliParserTest, FlagWithValueFails) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--verbose=1"};
  EXPECT_EXIT(parser.parse(static_cast<int>(argv.size()), argv.data()),
              testing::ExitedWithCode(2),
              "prog: flag --verbose takes no value");
}

TEST(CliParserTest, HelpReturnsFalse) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--help"};
  EXPECT_FALSE(parser.parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(CliParserTest, UndeclaredGetThrows) {
  auto parser = make_parser();
  const std::array argv = {"prog"};
  ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_THROW(parser.get("nope"), std::invalid_argument);
}

TEST(CliParserTest, OptionLikeValueIsRejected) {
  // `--mtbf --trials 5` used to silently bind mtbf = "--trials".
  auto parser = make_parser();
  const std::array argv = {"prog", "--mtbf", "--protocol", "5"};
  EXPECT_EXIT(parser.parse(static_cast<int>(argv.size()), argv.data()),
              testing::ExitedWithCode(2),
              "prog: option --mtbf needs a value \\(got '--protocol'");
}

TEST(CliParserTest, OptionLikeValueAllowedViaEquals) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--protocol=--weird"};
  ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(parser.get("protocol"), "--weird");
}

TEST(CliParserTest, NegativeNumberValuesStillParse) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--mtbf", "-5"};
  ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_DOUBLE_EQ(parser.get_double("mtbf"), -5.0);
}

TEST(CliParserDeathTest, InvalidDoubleReportsAndExits) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--mtbf", "abc"};
  ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EXIT(parser.get_double("mtbf"), testing::ExitedWithCode(2),
              "prog: option --mtbf: invalid value 'abc'");
}

TEST(CliParserDeathTest, TrailingGarbageReportsAndExits) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--mtbf", "12x"};
  ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EXIT(parser.get_double("mtbf"), testing::ExitedWithCode(2),
              "invalid value '12x'");
  EXPECT_EXIT(parser.get_count("mtbf"), testing::ExitedWithCode(2),
              "invalid value '12x'");
}

TEST(CliParserDeathTest, OutOfRangeReportsAndExits) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--mtbf", "1e999"};
  ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EXIT(parser.get_double("mtbf"), testing::ExitedWithCode(2),
              "invalid value '1e999'");
}

TEST(CliParserDeathTest, FractionalIntReportsAndExits) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--mtbf", "12.5"};
  ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EXIT(parser.get_count("mtbf"), testing::ExitedWithCode(2),
              "invalid value '12.5'");
}

TEST(CliParserTest, CountTakesTheWholeUnsignedRange) {
  CliParser parser("prog", "test program");
  parser.add_option("threads", "0", "workers");
  parser.add_option("block", "4096", "block size");
  const std::array argv = {"prog", "--threads", "3", "--block",
                           "18446744073709551615"};
  ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(parser.get_count("threads"), 3u);
  EXPECT_EQ(parser.get_count("block"), 18446744073709551615ULL);
}

TEST(CliParserDeathTest, NegativeCountReportsAndExits) {
  // `dckpt chaos --threads` goes through this conversion; a negative value
  // must never wrap into a request for 2^64 - 1 threads. Nor may
  // `trace-gen --nodes` (events for 2^64 - 1 nodes) or `--metrics-bins`
  // (histograms of 2^64 - 1 bins): tested here, never by running a binary.
  for (const char* flag : {"threads", "nodes", "metrics-bins"}) {
    CliParser parser("prog", "test program");
    parser.add_option(flag, "0", "count");
    const std::string arg = std::string("--") + flag;
    const std::array argv = {"prog", arg.c_str(), "-1"};
    ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_EXIT(parser.get_count(flag), testing::ExitedWithCode(2),
                std::string("prog: option --") + flag + ": invalid value '-1'");
  }
}

TEST(CliParserDeathTest, NonFiniteRealReportsAndExits) {
  // `dckpt trace-gen --horizon inf` never finished; nan compared false
  // everywhere and was accepted silently (--period nan, --weibull-shape
  // nan).
  for (const char* value : {"inf", "-inf", "nan", "infinity"}) {
    EXPECT_EXIT(parser_with("horizon", value).get_double("horizon"),
                testing::ExitedWithCode(2),
                std::string("option --horizon: invalid value '") + value + "'");
  }
}

TEST(CliParserDeathTest, MalformedCountReportsAndExits) {
  for (const char* value :
       {"+3", " 3", "3x", "1.5", "", "18446744073709551616"}) {
    CliParser parser("prog", "test program");
    parser.add_option("runs", "0", "runs");
    const std::array argv = {"prog", "--runs", value};
    ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_EXIT(parser.get_count("runs"), testing::ExitedWithCode(2),
                "option --runs: invalid value")
        << "value '" << value << "'";
  }
}

TEST(CliParserDeathTest, HostileCorpusExitsNamingTheFlag) {
  // Every getter exits 2 naming the flag, except on what its own grammar
  // takes: "-1" for signed and real values, a 25-digit integer as a real,
  // and for a list of reals also "1,5" (two items) and "" (no items).
  const proptest::Property<std::string> property =
      [](const std::string& token) -> std::optional<std::string> {
    const bool signed_ok = token == "-1";
    const bool real_ok = signed_ok || token.size() == 25;
    const bool list_ok = real_ok || token == "1,5" || token.empty();
    const auto parser = parser_with("x", token);
    EXPECT_EXIT(parser.get_count("x"), testing::ExitedWithCode(2),
                "option --x: invalid value");
    if (!signed_ok) {
      EXPECT_EXIT(parser.get_number<int>("x"), testing::ExitedWithCode(2),
                  "option --x: invalid value");
    }
    if (!real_ok) {
      EXPECT_EXIT(parser.get_double("x"), testing::ExitedWithCode(2),
                  "option --x: invalid value");
    }
    if (!list_ok) {
      EXPECT_EXIT(parser.get_doubles("x"), testing::ExitedWithCode(2),
                  "option --x: invalid value");
    }
    if (testing::Test::HasFailure()) return "a getter took it";
    return std::nullopt;
  };
  proptest::forall_tokens(proptest::hostile_number_tokens(), property);
}

TEST(CliParserTest, ListOfRealsSkipsEmptyItems) {
  EXPECT_EQ(parser_with("mtbfs", "900,,3600,").get_doubles("mtbfs"),
            (std::vector<double>{900.0, 3600.0}));
}

TEST(CliParserDeathTest, ListWithABadItemExitsNamingTheWholeValue) {
  // `dckpt sweep --mtbfs 900,abc` exited 1 with the bare message "stod";
  // `--mtbfs 900x` ran as 900.
  EXPECT_EXIT(parser_with("mtbfs", "900,abc").get_doubles("mtbfs"),
              testing::ExitedWithCode(2),
              "prog: option --mtbfs: invalid value '900,abc'");
  EXPECT_EXIT(parser_with("mtbfs", "900x").get_doubles("mtbfs"),
              testing::ExitedWithCode(2),
              "prog: option --mtbfs: invalid value '900x'");
}

TEST(CliParserDeathTest, FlagGrammarErrorsExitLikeNumbers) {
  const auto parse = [](const std::string& text) {
    if (text != "ok") throw std::invalid_argument(text);
    return 7;
  };
  EXPECT_EQ(parser_with("schedule", "ok").get_parsed("schedule", parse), 7);
  const auto bad = parser_with("schedule", "17:banana");
  EXPECT_EXIT(bad.get_parsed("schedule", parse), testing::ExitedWithCode(2),
              "prog: option --schedule: invalid value '17:banana'");
}

// Bounded counts, tested in-process: none of these values may ever reach a
// binary, where a regression would spawn or allocate that much.
TEST(CliParserDeathTest, ThreadCountsAreBounded) {
  using dckpt::util::kMaxThreads;
  const auto max = std::to_string(kMaxThreads);
  EXPECT_EQ(parser_with("threads", max).get_count("threads", kMaxThreads),
            kMaxThreads);
  const auto over = std::to_string(kMaxThreads + 1);
  for (const char* value : {over.c_str(), "18446744073709551615", "-1"}) {
    const auto parser = parser_with("threads", value);
    EXPECT_EXIT(parser.get_count("threads", kMaxThreads),
                testing::ExitedWithCode(2),
                std::string("option --threads: invalid value '") + value + "'");
  }
}

TEST(CliParserDeathTest, MetricsBinsAreBounded) {
  // `simulate` and `sweep` build four histograms of --metrics-bins bins in
  // every chunk accumulator; a count past util::kMaxMetricsBins exits 2
  // instead of allocating it (tested here, never by running a binary).
  using dckpt::util::kMaxMetricsBins;
  const auto max = std::to_string(kMaxMetricsBins);
  EXPECT_EQ(parser_with("metrics-bins", max)
                .get_count("metrics-bins", kMaxMetricsBins),
            kMaxMetricsBins);
  const auto over = std::to_string(kMaxMetricsBins + 1);
  for (const char* value : {over.c_str(), "18446744073709551615"}) {
    const auto parser = parser_with("metrics-bins", value);
    EXPECT_EXIT(parser.get_count("metrics-bins", kMaxMetricsBins),
                testing::ExitedWithCode(2),
                std::string("option --metrics-bins: invalid value '") + value +
                    "'");
  }
}

TEST(CliParserDeathTest, PortIsReadWithinItsBounds) {
  // -1 is stdin mode. 4294967297 used to pass through a cast to int and
  // listen on port 1.
  EXPECT_EQ(parser_with("port", "-1").get_number<int>("port", -1, 65535), -1);
  EXPECT_EQ(parser_with("port", "65535").get_number<int>("port", -1, 65535),
            65535);
  for (const char* value : {"65536", "4294967297", "-2"}) {
    const auto parser = parser_with("port", value);
    EXPECT_EXIT(parser.get_number<int>("port", -1, 65535),
                testing::ExitedWithCode(2),
                std::string("option --port: invalid value '") + value + "'");
  }
}

TEST(CliParserDeathTest, MaxSparesIsBounded) {
  // `dckpt spares` doubles its pool size while it is <= --max-spares; from
  // 2^63 on the doubling wrapped to 0 and never ended.
  using dckpt::model::kMaxSpares;
  const auto max = parser_with("max-spares", std::to_string(kMaxSpares));
  EXPECT_EQ(max.get_count("max-spares", kMaxSpares), kMaxSpares);
  const auto over = parser_with("max-spares", "9223372036854775808");
  EXPECT_EXIT(over.get_count("max-spares", kMaxSpares),
              testing::ExitedWithCode(2),
              "option --max-spares: invalid value '9223372036854775808'");
}

TEST(CliParserTest, UsageListsOptions) {
  auto parser = make_parser();
  const std::string usage = parser.usage();
  EXPECT_NE(usage.find("--mtbf"), std::string::npos);
  EXPECT_NE(usage.find("--verbose"), std::string::npos);
  EXPECT_NE(usage.find("--help"), std::string::npos);
}

}  // namespace
