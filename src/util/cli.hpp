// Small declarative command-line parser shared by examples and benches.
// Supports `--name value`, `--name=value` and boolean `--flag`, generates
// --help text, and validates unknown options.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dckpt::util {

class CliParser {
 public:
  CliParser(std::string program, std::string description);

  /// Declares an option with a default value (all values held as strings).
  void add_option(const std::string& name, const std::string& default_value,
                  const std::string& help);
  /// Declares a boolean flag (false unless present).
  void add_flag(const std::string& name, const std::string& help);

  /// Parses argv. Returns false (after printing usage) on --help or error.
  /// A space-separated value may not itself start with `--` (catches
  /// `--mtbf --trials 5` typos); use `--opt=value` to force one through.
  bool parse(int argc, const char* const* argv);

  std::string get(const std::string& name) const;
  /// Numeric getters validate the full token; a malformed or out-of-range
  /// value prints `program: option --name: invalid value 'x'` and exits(2)
  /// instead of leaking a raw std::stod exception out of the tool.
  double get_double(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  /// A count, size or seed: the whole token read as an unsigned 64-bit
  /// decimal. A sign (so any negative value) is an invalid value, never a
  /// wrapped one; every value up to 2^64 - 1 is accepted.
  std::uint64_t get_count(const std::string& name) const;
  bool get_flag(const std::string& name) const;

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
