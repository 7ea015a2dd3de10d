// Strict text-to-number conversion, list splitting and named values: the
// one path every input boundary (CLI flags, serve requests, chaos
// schedules, failure traces) turns text into numbers and enumerations
// through.
//
// Number grammar (std::from_chars): decimal or scientific notation, with a
// leading '-' only for signed and floating-point types. The whole token
// must be the number: surrounding whitespace, a leading '+', hex and any
// trailing junk are malformed, and a floating-point value must be finite,
// so "inf" and "nan" are rejected too.
#pragma once

#include <charconv>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace dckpt::util {

/// Why parse_number rejected a token.
enum class ParseError {
  kNone,        ///< parsed; the value is usable
  kMalformed,   ///< not wholly a number in the grammar above
  kNonFinite,   ///< inf or nan, for a floating-point type
  kOutOfRange,  ///< beyond the type's range or the caller's bounds
};

template <typename T>
struct Parsed {
  T value{};
  ParseError error = ParseError::kNone;

  explicit operator bool() const noexcept { return error == ParseError::kNone; }
};

/// Parses the whole of `text` as a T in [lo, hi].
template <typename T>
Parsed<T> parse_number(std::string_view text,
                       T lo = std::numeric_limits<T>::lowest(),
                       T hi = std::numeric_limits<T>::max()) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error == std::errc::result_out_of_range) {
    return {value, ParseError::kOutOfRange};
  }
  if (error != std::errc{} || stop != end) {
    return {value, ParseError::kMalformed};
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return {value, ParseError::kNonFinite};
  }
  if (value < lo || value > hi) return {value, ParseError::kOutOfRange};
  return {value, ParseError::kNone};
}

/// Splits `text` at every `sep`: n separators give n + 1 fields, empty ones
/// included ("" is one empty field). The views point into `text`.
std::vector<std::string_view> split(std::string_view text, char sep);

/// An enumerated input read by name ("pairs" | "triples", "batched" |
/// "scalar", ...): called with a name, returns that name's value; any other
/// text throws std::invalid_argument, which makes it a
/// CliParser::get_parsed converter. The names are views: pass literals.
template <typename T>
class NamedValues {
 public:
  NamedValues(std::initializer_list<std::pair<std::string_view, T>> names)
      : names_(names) {}

  T operator()(std::string_view text) const {
    for (const auto& [name, value] : names_) {
      if (name == text) return value;
    }
    throw std::invalid_argument("unknown name '" + std::string(text) + "'");
  }

 private:
  std::vector<std::pair<std::string_view, T>> names_;
};

}  // namespace dckpt::util
