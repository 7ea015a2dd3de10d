#include "util/parse.hpp"

namespace dckpt::util {

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  for (auto at = text.find(sep); at != std::string_view::npos;
       at = text.find(sep, start)) {
    fields.push_back(text.substr(start, at - start));
    start = at + 1;
  }
  fields.push_back(text.substr(start));
  return fields;
}

}  // namespace dckpt::util
