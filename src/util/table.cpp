#include "util/table.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace dckpt::util {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("TextTable: no headers");
}

void TextTable::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("TextTable: row arity mismatch");
  }
  rows_.push_back(std::move(cells));
}

std::string TextTable::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) out << "  ";
      out << row[c];
      // right-pad all but the last column
      if (c + 1 < row.size()) {
        out << std::string(widths[c] - row[c].size(), ' ');
      }
    }
    out << "\n";
  };
  emit_row(headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c ? 2 : 0);
  }
  out << std::string(total, '-') << "\n";
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

}  // namespace dckpt::util
