#include "util/cli.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace dckpt::util {

namespace {

[[noreturn]] void exit_invalid_value(const std::string& program,
                                     const std::string& name,
                                     const std::string& value) {
  std::fprintf(stderr, "%s: option --%s: invalid value '%s'\n",
               program.c_str(), name.c_str(), value.c_str());
  std::exit(2);
}

}  // namespace

CliParser::CliParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void CliParser::add_option(const std::string& name,
                           const std::string& default_value,
                           const std::string& help) {
  options_[name] = Option{default_value, help, false};
}

void CliParser::add_flag(const std::string& name, const std::string& help) {
  options_[name] = Option{"", help, true};
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::optional<std::string> inline_value;
    if (auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name.erase(eq);
    }
    auto it = options_.find(name);
    if (it == options_.end()) {
      std::fprintf(stderr, "%s: unknown option --%s\n%s", program_.c_str(),
                   name.c_str(), usage().c_str());
      return false;
    }
    if (it->second.is_flag) {
      if (inline_value) {
        std::fprintf(stderr, "%s: flag --%s takes no value\n", program_.c_str(),
                     name.c_str());
        return false;
      }
      values_[name] = std::string("1");
      continue;
    }
    if (inline_value) {
      values_[name] = *inline_value;
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[name] = argv[++i];
    } else if (i + 1 < argc) {
      // `--mtbf --trials 5` almost certainly forgot the mtbf value; require
      // the explicit form for values that really start with a double dash.
      std::fprintf(stderr,
                   "%s: option --%s needs a value (got '%s'; use "
                   "--%s=%s if that is really the value)\n",
                   program_.c_str(), name.c_str(), argv[i + 1], name.c_str(),
                   argv[i + 1]);
      return false;
    } else {
      std::fprintf(stderr, "%s: option --%s needs a value\n", program_.c_str(),
                   name.c_str());
      return false;
    }
  }
  return true;
}

std::string CliParser::get(const std::string& name) const {
  auto vit = values_.find(name);
  if (vit != values_.end()) return vit->second;
  auto oit = options_.find(name);
  if (oit == options_.end()) {
    throw std::invalid_argument("CliParser: undeclared option " + name);
  }
  return oit->second.default_value;
}

double CliParser::get_double(const std::string& name) const {
  const std::string text = get(name);
  try {
    std::size_t used = 0;
    const double value = std::stod(text, &used);
    if (used != text.size()) exit_invalid_value(program_, name, text);
    return value;
  } catch (const std::logic_error&) {  // invalid_argument / out_of_range
    exit_invalid_value(program_, name, text);
  }
}

std::int64_t CliParser::get_int(const std::string& name) const {
  const std::string text = get(name);
  try {
    std::size_t used = 0;
    const std::int64_t value = std::stoll(text, &used);
    if (used != text.size()) exit_invalid_value(program_, name, text);
    return value;
  } catch (const std::logic_error&) {
    exit_invalid_value(program_, name, text);
  }
}

std::uint64_t CliParser::get_count(const std::string& name) const {
  const std::string text = get(name);
  const char* const end = text.data() + text.size();
  std::uint64_t value = 0;
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end) {
    exit_invalid_value(program_, name, text);
  }
  return value;
}

bool CliParser::get_flag(const std::string& name) const {
  auto vit = values_.find(name);
  return vit != values_.end() && vit->second == "1";
}

std::string CliParser::usage() const {
  std::string text = program_ + " -- " + description_ + "\n\noptions:\n";
  for (const auto& [name, opt] : options_) {
    text += "  --" + name;
    if (!opt.is_flag) text += " <value> (default: " + opt.default_value + ")";
    text += "\n      " + opt.help + "\n";
  }
  text += "  --help\n      show this message\n";
  return text;
}

}  // namespace dckpt::util
