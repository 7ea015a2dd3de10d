#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace {

using dckpt::util::CsvWriter;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class CsvWriterTest : public ::testing::Test {
 protected:
  // One file per test: ctest runs each case as its own process, in
  // parallel, and a shared path let one case read another's file.
  std::string path_ =
      ::testing::TempDir() + "/dckpt_csv_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".csv";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvWriterTest, WritesHeaderAndRows) {
  {
    CsvWriter csv(path_, {"a", "b"});
    csv.write_row({"1", "2"});
    csv.write_row({"x", "y"});
  }
  EXPECT_EQ(slurp(path_), "a,b\n1,2\nx,y\n");
}

TEST_F(CsvWriterTest, NumericRows) {
  {
    CsvWriter csv(path_, {"v"});
    csv.write_row_numeric({0.5});
  }
  EXPECT_EQ(slurp(path_), "v\n0.500000000\n");
}

TEST_F(CsvWriterTest, QuotesSpecialCharacters) {
  {
    CsvWriter csv(path_, {"text"});
    csv.write_row({"has,comma"});
    csv.write_row({"has\"quote"});
  }
  EXPECT_EQ(slurp(path_), "text\n\"has,comma\"\n\"has\"\"quote\"\n");
}

TEST_F(CsvWriterTest, RejectsArityMismatch) {
  CsvWriter csv(path_, {"a", "b"});
  EXPECT_THROW(csv.write_row({"1"}), std::invalid_argument);
}

TEST_F(CsvWriterTest, RejectsEmptyHeader) {
  EXPECT_THROW(CsvWriter(path_, {}), std::invalid_argument);
}

TEST_F(CsvWriterTest, RejectsUnwritablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv", {"a"}),
               std::runtime_error);
}

}  // namespace
