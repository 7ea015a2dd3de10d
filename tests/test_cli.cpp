#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <array>

namespace {

using dckpt::util::CliParser;

CliParser make_parser() {
  CliParser parser("prog", "test program");
  parser.add_option("mtbf", "3600", "platform MTBF in seconds");
  parser.add_option("protocol", "triple", "protocol name");
  parser.add_flag("verbose", "chatty output");
  return parser;
}

TEST(CliParserTest, DefaultsApply) {
  auto parser = make_parser();
  const std::array argv = {"prog"};
  ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(parser.get("mtbf"), "3600");
  EXPECT_DOUBLE_EQ(parser.get_double("mtbf"), 3600.0);
  EXPECT_EQ(parser.get_int("mtbf"), 3600);
  EXPECT_FALSE(parser.get_flag("verbose"));
}

TEST(CliParserTest, SpaceSeparatedValue) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--mtbf", "60"};
  ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(parser.get_int("mtbf"), 60);
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

TEST(CliParserTest, UnknownOptionFails) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--bogus", "1"};
  EXPECT_FALSE(parser.parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(CliParserTest, MissingValueFails) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--mtbf"};
  EXPECT_FALSE(parser.parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(CliParserTest, FlagWithValueFails) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--verbose=1"};
  EXPECT_FALSE(parser.parse(static_cast<int>(argv.size()), argv.data()));
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
  EXPECT_FALSE(parser.parse(static_cast<int>(argv.size()), argv.data()));
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
  EXPECT_EQ(parser.get_int("mtbf"), -5);
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
  EXPECT_EXIT(parser.get_int("mtbf"), testing::ExitedWithCode(2),
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
  EXPECT_EXIT(parser.get_int("mtbf"), testing::ExitedWithCode(2),
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
  // must never wrap into a request for 2^64 - 1 threads.
  CliParser parser("prog", "test program");
  parser.add_option("threads", "0", "workers");
  const std::array argv = {"prog", "--threads", "-1"};
  ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EXIT(parser.get_count("threads"), testing::ExitedWithCode(2),
              "prog: option --threads: invalid value '-1'");
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

TEST(CliParserTest, UsageListsOptions) {
  auto parser = make_parser();
  const std::string usage = parser.usage();
  EXPECT_NE(usage.find("--mtbf"), std::string::npos);
  EXPECT_NE(usage.find("--verbose"), std::string::npos);
  EXPECT_NE(usage.find("--help"), std::string::npos);
}

}  // namespace
