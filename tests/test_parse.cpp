#include "util/parse.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "proptest.hpp"

namespace {

using dckpt::util::parse_number;
using dckpt::util::ParseError;
using dckpt::util::split;

TEST(ParseNumber, AcceptsDecimalAndScientific) {
  EXPECT_EQ(parse_number<double>("25200").value, 25200.0);
  EXPECT_EQ(parse_number<double>("0.25").value, 0.25);
  EXPECT_EQ(parse_number<double>("2e-4").value, 2e-4);
  EXPECT_EQ(parse_number<double>("1E3").value, 1000.0);
  EXPECT_EQ(parse_number<double>("-5").value, -5.0);
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615").value,
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_number<int>("-1").value, -1);
  EXPECT_TRUE(parse_number<double>("100000"));
}

TEST(ParseNumber, ErrorsAreTyped) {
  EXPECT_EQ(parse_number<double>("nan").error, ParseError::kNonFinite);
  EXPECT_EQ(parse_number<double>("-inf").error, ParseError::kNonFinite);
  EXPECT_EQ(parse_number<double>("1e400").error, ParseError::kOutOfRange);
  EXPECT_EQ(parse_number<double>("900x").error, ParseError::kMalformed);
  EXPECT_EQ(parse_number<double>("0x1p10").error, ParseError::kMalformed);
  EXPECT_EQ(parse_number<std::uint64_t>("-1").error, ParseError::kMalformed);
  EXPECT_EQ(parse_number<std::uint64_t>("1e3").error, ParseError::kMalformed);
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551616").error,
            ParseError::kOutOfRange);
  EXPECT_EQ(parse_number<int>("2147483648").error, ParseError::kOutOfRange);
}

TEST(ParseNumber, BoundsAreInclusive) {
  EXPECT_EQ(parse_number<int>("-1", -1, 65535).value, -1);
  EXPECT_EQ(parse_number<int>("65535", -1, 65535).value, 65535);
  EXPECT_EQ(parse_number<int>("-2", -1, 65535).error, ParseError::kOutOfRange);
  EXPECT_EQ(parse_number<int>("65536", -1, 65535).error,
            ParseError::kOutOfRange);
  EXPECT_EQ(parse_number<std::uint64_t>("0", 1).error,
            ParseError::kOutOfRange);
  EXPECT_EQ(parse_number<double>("0.5", 1.0).error, ParseError::kOutOfRange);
}

TEST(ParseNumber, HostileCorpusIsRejectedByEveryTypeInUse) {
  // Each type takes only what its own grammar allows: "-1" is a signed or
  // floating value, and the 25-digit integer is a (huge but finite) double.
  const proptest::Property<std::string> property =
      [](const std::string& token) -> std::optional<std::string> {
    const bool signed_ok = token == "-1";
    const bool double_ok = signed_ok || token.size() == 25;
    if (parse_number<std::uint64_t>(token)) return "uint64_t took it";
    if (parse_number<std::size_t>(token)) return "size_t took it";
    if (parse_number<int>(token) && !signed_ok) return "int took it";
    if (parse_number<double>(token) && !double_ok) return "double took it";
    return std::nullopt;
  };
  proptest::forall_tokens(proptest::hostile_number_tokens(), property);
}

TEST(Split, KeepsEveryFieldInOrder) {
  using Fields = std::vector<std::string_view>;
  EXPECT_EQ(split("60,3600,86400", ','), (Fields{"60", "3600", "86400"}));
  EXPECT_EQ(split("a,,b,", ','), (Fields{"a", "", "b", ""}));
  EXPECT_EQ(split("", ','), (Fields{""}));
  EXPECT_EQ(split("4x6", 'x'), (Fields{"4", "6"}));
  EXPECT_EQ(split("17:corrupt:1:0", ':'),
            (Fields{"17", "corrupt", "1", "0"}));
}

}  // namespace
