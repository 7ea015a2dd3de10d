// Small declarative command-line parser shared by examples and benches.
// Supports `--name value`, `--name=value` and boolean `--flag`, generates
// --help text, and validates unknown options. Numeric values go through
// util::parse_number (util/parse.hpp for the grammar).
//
// Exit codes: a malformed command line (unknown option, missing value, a
// value given to a flag) or a malformed value exits 2 with a message naming
// the flag. A value that parses but fails a config struct's validate() is
// the tool's exit 1.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/parse.hpp"

namespace dckpt::util {

/// Largest --threads value a tool accepts: far above any node's hardware
/// threads, far below a count whose spawn would exhaust the process.
inline constexpr std::uint64_t kMaxThreads = 1024;

/// Largest --metrics-bins value a tool accepts. A campaign holds four
/// histograms of that many 8-byte bins in each of its 64 chunk
/// accumulators and in its total, about 8 MiB at this bound (a sweep also
/// keeps every row's total, 128 KiB a row). Finer bins would not sharpen
/// the quantiles: their Monte-Carlo error shrinks like 1/sqrt(trials), so
/// a bin of 1/4096 of the range matters only past ~10^7 trials.
inline constexpr std::uint64_t kMaxMetricsBins = 4096;

class CliParser {
 public:
  CliParser(std::string program, std::string description);

  /// Declares an option with a default value (all values held as strings).
  void add_option(const std::string& name, const std::string& default_value,
                  const std::string& help);
  /// Declares a boolean flag (false unless present).
  void add_flag(const std::string& name, const std::string& help);

  /// Parses argv. Returns false after printing usage on --help. An unknown
  /// option, a missing value or a value given to a flag prints the error
  /// and exits(2). A space-separated value may not itself start with `--`
  /// (catches `--mtbf --trials 5` typos); use `--opt=value` to force one.
  bool parse(int argc, const char* const* argv);

  std::string get(const std::string& name) const;
  /// The value read as a T in [lo, hi]. A malformed, non-finite or
  /// out-of-range value prints `program: option --name: invalid value 'x'`
  /// and exits(2).
  template <typename T>
  T get_number(const std::string& name, T lo = std::numeric_limits<T>::lowest(),
               T hi = std::numeric_limits<T>::max()) const {
    const auto parsed = parse_number<T>(get(name), lo, hi);
    if (!parsed) invalid_value(name);
    return parsed.value;
  }
  double get_double(const std::string& name) const {
    return get_number<double>(name);
  }
  /// A count, size or seed: an unsigned decimal up to `max`. A sign (so any
  /// negative value) is an invalid value, never a wrapped one.
  std::uint64_t get_count(const std::string& name,
                          std::uint64_t max = UINT64_MAX) const {
    return get_number<std::uint64_t>(name, 0, max);
  }
  /// A comma-separated list of reals ("60,3600,86400"). Empty items are
  /// skipped; one malformed item makes the whole value invalid.
  std::vector<double> get_doubles(const std::string& name) const;
  /// The value converted by `convert`, the flag's own grammar, which
  /// throws std::invalid_argument on malformed text: reported like a bad
  /// number.
  template <typename Convert>
  auto get_parsed(const std::string& name, Convert convert) const {
    const std::string text = get(name);
    try {
      return convert(text);
    } catch (const std::invalid_argument&) {
      invalid_value(name);
    }
  }
  bool get_flag(const std::string& name) const;

  /// Prints `program: option --name: invalid value '<value>'` and exits(2).
  [[noreturn]] void invalid_value(const std::string& name) const;

  /// Positional arguments left after options.
  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  std::string usage() const;

 private:
  struct Option {
    std::string default_value;
    std::string help;
    bool is_flag = false;
  };

  std::string program_;
  std::string description_;
  std::map<std::string, Option> options_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace dckpt::util
