// Fixed-width text table renderer: the bench binaries print the paper's
// tables/series in aligned columns so figure data is readable in a terminal
// and diffable across runs.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace dckpt::util {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  /// Appends a row; must have the same arity as the header.
  void add_row(std::vector<std::string> cells);

  std::size_t row_count() const noexcept { return rows_.size(); }

  /// Renders with a header underline and 2-space column gutters.
  std::string render() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace dckpt::util
