#include "sim/failure_log.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>

#include "proptest.hpp"

namespace {

using namespace dckpt::sim;

class TraceFileTest : public ::testing::Test {
 protected:
  // One file per test: ctest runs each case as its own process, in
  // parallel, and a shared path let one case read another's file.
  std::string path_ =
      ::testing::TempDir() + "/dckpt_trace_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".txt";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(TraceFileTest, SaveLoadRoundTrip) {
  const std::vector<FailureEvent> events = {
      {0.5, 3}, {12.25, 0}, {100.125, 7}};
  save_failure_trace(path_, events);
  const auto loaded = load_failure_trace(path_);
  ASSERT_EQ(loaded.size(), 3u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded[i].time, events[i].time);
    EXPECT_EQ(loaded[i].node, events[i].node);
  }
}

TEST_F(TraceFileTest, CommentsAndBlanksIgnored) {
  {
    std::ofstream out(path_);
    out << "# header comment\n\n  # indented comment\n1.5 2\n\n3.0 0\n";
  }
  const auto loaded = load_failure_trace(path_);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_DOUBLE_EQ(loaded[0].time, 1.5);
  EXPECT_EQ(loaded[0].node, 2u);
}

TEST_F(TraceFileTest, BadLinesRejectedWithLineNumber) {
  // Each field is parsed whole, with nothing after the two: a node "-1"
  // wrapped to 2^64 - 1, "3x" was read as 3 and a third field was ignored,
  // so `dckpt trace-fit` reported such a file as 3 distinct nodes.
  const char* const bad_lines[] = {
      "not-a-number 3",  // not a number
      "1.0 -1",          // a negative node
      "1.0 3x",          // a node with trailing junk
      "1.0 3 7",         // a third field
      "1.0 3 # note",    // a trailing comment
      "1.0",             // no node
      "1.0x 3",          // a time with trailing junk
      "inf 3",           // a non-finite time
      "-2 3",            // a negative time
  };
  for (const char* line : bad_lines) {
    {
      std::ofstream out(path_);
      out << "1.0 0\n" << line << "\n";
    }
    try {
      load_failure_trace(path_);
      ADD_FAILURE() << "accepted '" << line << "'";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos)
          << line;
    }
  }
}

TEST_F(TraceFileTest, HostileCorpusIsRejectedInEitherField) {
  // The format is whitespace-separated, so " 5" is one more blank before a
  // valid field; a time also takes the 25-digit integer (finite, >= 0).
  const auto rejected = [&](const std::string& line) {
    {
      std::ofstream out(path_);
      out << line << "\n";
    }
    try {
      load_failure_trace(path_);
    } catch (const std::runtime_error&) {
      return true;
    }
    return false;
  };
  const proptest::Property<std::string> property =
      [&](const std::string& token) -> std::optional<std::string> {
    if (token == " 5") return std::nullopt;
    if (!rejected("10 " + token)) return "accepted it as a node";
    if (token.size() != 25 && !rejected(token + " 3")) {
      return "accepted it as a time";
    }
    return std::nullopt;
  };
  proptest::forall_tokens(proptest::hostile_number_tokens(), property);
}

TEST_F(TraceFileTest, UnsortedFileRejected) {
  {
    std::ofstream out(path_);
    out << "5.0 0\n1.0 1\n";
  }
  EXPECT_THROW(load_failure_trace(path_), std::runtime_error);
}

TEST_F(TraceFileTest, MissingFileRejected) {
  EXPECT_THROW(load_failure_trace("/nonexistent/trace.txt"),
               std::runtime_error);
}

TEST(GenerateFailureTraceTest, RespectsHorizonAndSorting) {
  const auto dist = dckpt::util::Exponential::from_mean(50.0);
  const auto events = generate_failure_trace(dist, 8, 1000.0,
                                             dckpt::util::Xoshiro256ss(3));
  ASSERT_FALSE(events.empty());
  double previous = 0.0;
  for (const auto& event : events) {
    EXPECT_GE(event.time, previous);
    EXPECT_LT(event.time, 1000.0);
    EXPECT_LT(event.node, 8u);
    previous = event.time;
  }
  // ~8 nodes * 1000/50 = 160 expected events.
  EXPECT_GT(events.size(), 100u);
  EXPECT_LT(events.size(), 240u);
}

TEST(GenerateFailureTraceTest, Validation) {
  const auto dist = dckpt::util::Exponential::from_mean(50.0);
  EXPECT_THROW(
      generate_failure_trace(dist, 0, 10.0, dckpt::util::Xoshiro256ss(1)),
      std::invalid_argument);
  EXPECT_THROW(
      generate_failure_trace(dist, 2, 0.0, dckpt::util::Xoshiro256ss(1)),
      std::invalid_argument);
}

}  // namespace
