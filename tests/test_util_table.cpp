#include "util/table.h"

#include <gtest/gtest.h>

#include <sstream>

namespace eotora::util {
namespace {

TEST(Table, RequiresHeaders) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, RowWidthMustMatchHeaders) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({std::string("1")}), std::invalid_argument);
  table.add_row({"1", "2"});
  EXPECT_EQ(table.rows(), 1u);
  EXPECT_EQ(table.columns(), 2u);
}

TEST(Table, AsciiContainsHeadersAndValues) {
  Table table({"name", "value"});
  table.add_row({"latency", "3.14"});
  const std::string ascii = table.to_ascii();
  EXPECT_NE(ascii.find("name"), std::string::npos);
  EXPECT_NE(ascii.find("latency"), std::string::npos);
  EXPECT_NE(ascii.find("3.14"), std::string::npos);
  EXPECT_NE(ascii.find('+'), std::string::npos);
}

TEST(Table, DoubleRowsUsePrecision) {
  Table table({"x"});
  table.add_numeric_row({1.23456789}, 3);
  EXPECT_NE(table.to_ascii().find("1.235"), std::string::npos);
}

TEST(Table, PrintWritesToStream) {
  Table table({"h"});
  table.add_row({"v"});
  std::ostringstream oss;
  table.print(oss);
  EXPECT_FALSE(oss.str().empty());
}

TEST(FormatDouble, FixedPrecision) {
  EXPECT_EQ(format_double(1.0, 2), "1.00");
  EXPECT_EQ(format_double(-0.125, 3), "-0.125");
}

}  // namespace
}  // namespace eotora::util
