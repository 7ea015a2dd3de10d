#include "util/table.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace {

using dckpt::util::TextTable;

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"a-much-longer-name", "2.5"});
  const std::string text = table.render();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("a-much-longer-name"), std::string::npos);
  // Header separator present.
  EXPECT_NE(text.find("----"), std::string::npos);
  // Two data rows + header + separator = 4 lines.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
}

TEST(TextTableTest, RejectsArityMismatch) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(table.add_row({"1", "2", "3"}), std::invalid_argument);
}

TEST(TextTableTest, RejectsEmptyHeader) {
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(TextTableTest, RowCount) {
  TextTable table({"c"});
  EXPECT_EQ(table.row_count(), 0u);
  table.add_row({"1"});
  table.add_row({"2"});
  EXPECT_EQ(table.row_count(), 2u);
}

}  // namespace
