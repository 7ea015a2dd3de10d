#include "util/cli.hpp"

#include <cstdio>
#include <cstdlib>

namespace dckpt::util {

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
      std::exit(2);
    }
    if (it->second.is_flag) {
      if (inline_value) {
        std::fprintf(stderr, "%s: flag --%s takes no value\n", program_.c_str(),
                     name.c_str());
        std::exit(2);
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
      std::exit(2);
    } else {
      std::fprintf(stderr, "%s: option --%s needs a value\n", program_.c_str(),
                   name.c_str());
      std::exit(2);
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

std::vector<double> CliParser::get_doubles(const std::string& name) const {
  const std::string text = get(name);
  std::vector<double> values;
  for (const std::string_view item : split(text, ',')) {
    if (item.empty()) continue;
    const auto parsed = parse_number<double>(item);
    if (!parsed) invalid_value(name);
    values.push_back(parsed.value);
  }
  return values;
}

bool CliParser::get_flag(const std::string& name) const {
  auto vit = values_.find(name);
  return vit != values_.end() && vit->second == "1";
}

void CliParser::invalid_value(const std::string& name) const {
  std::fprintf(stderr, "%s: option --%s: invalid value '%s'\n",
               program_.c_str(), name.c_str(), get(name).c_str());
  std::exit(2);
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
