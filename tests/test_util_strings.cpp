#include "util/strings.h"

#include <gtest/gtest.h>

namespace eotora::util {
namespace {

TEST(Trim, RemovesWhitespaceBothEnds) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t a b \n"), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(ParseDouble, ParsesNumbers) {
  EXPECT_DOUBLE_EQ(parse_double("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(parse_double(" -1e3 "), -1000.0);
}

TEST(ParseDouble, RejectsGarbage) {
  EXPECT_THROW((void)parse_double(""), std::invalid_argument);
  EXPECT_THROW((void)parse_double("abc"), std::invalid_argument);
  EXPECT_THROW((void)parse_double("1.5x"), std::invalid_argument);
}

// strtod's extended grammar (inf, nan, hex-floats) used to leak through:
// "--budget=inf" parsed fine and poisoned every downstream computation.
TEST(ParseDouble, RejectsNonFiniteSpellings) {
  EXPECT_THROW((void)parse_double("inf"), std::invalid_argument);
  EXPECT_THROW((void)parse_double("-inf"), std::invalid_argument);
  EXPECT_THROW((void)parse_double("infinity"), std::invalid_argument);
  EXPECT_THROW((void)parse_double("nan"), std::invalid_argument);
  EXPECT_THROW((void)parse_double("NaN"), std::invalid_argument);
  EXPECT_THROW((void)parse_double("nan(0x1)"), std::invalid_argument);
}

TEST(ParseDouble, RejectsHexFloats) {
  EXPECT_THROW((void)parse_double("0x1p3"), std::invalid_argument);
  EXPECT_THROW((void)parse_double("0X1.8P1"), std::invalid_argument);
}

// Overflow saturates strtod to ±HUGE_VAL; it used to be returned as a
// perfectly ordinary-looking infinity.
TEST(ParseDouble, RejectsOverflow) {
  EXPECT_THROW((void)parse_double("1e999"), std::invalid_argument);
  EXPECT_THROW((void)parse_double("-1e999"), std::invalid_argument);
}

// Gradual underflow is NOT an error: the nearest representable value (a
// subnormal, or zero) is the right answer for a tiny magnitude.
TEST(ParseDouble, AllowsUnderflowToSubnormalOrZero) {
  EXPECT_GT(parse_double("1e-310"), 0.0);  // subnormal
  EXPECT_DOUBLE_EQ(parse_double("1e-999"), 0.0);
}

TEST(ParseDouble, StillParsesSignsAndExponents) {
  EXPECT_DOUBLE_EQ(parse_double("+2.5"), 2.5);
  EXPECT_DOUBLE_EQ(parse_double("-3E-2"), -0.03);
  EXPECT_DOUBLE_EQ(parse_double("1e308"), 1e308);
}

TEST(ParseLong, ParsesIntegers) {
  EXPECT_EQ(parse_long("0"), 0);
  EXPECT_EQ(parse_long(" -42 "), -42);
  EXPECT_EQ(parse_long("+7"), 7);
}

// The motivating case: get_int used to round-trip through double, which
// silently rounds above 2^53. 9007199254740993 == 2^53 + 1 is the first
// integer a double cannot hold.
TEST(ParseLong, ExactAbove2To53) {
  EXPECT_EQ(parse_long("9007199254740993"), 9007199254740993L);
  EXPECT_EQ(parse_long("-9007199254740993"), -9007199254740993L);
}

TEST(ParseLong, RejectsGarbageAndFractions) {
  EXPECT_THROW((void)parse_long(""), std::invalid_argument);
  EXPECT_THROW((void)parse_long("abc"), std::invalid_argument);
  EXPECT_THROW((void)parse_long("1.5"), std::invalid_argument);
  EXPECT_THROW((void)parse_long("12x"), std::invalid_argument);
  EXPECT_THROW((void)parse_long("0x10"), std::invalid_argument);
}

TEST(ParseLong, RejectsOutOfRange) {
  // ±(2^63 + margin) overflows long on LP64; ERANGE must surface.
  EXPECT_THROW((void)parse_long("99999999999999999999"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_long("-99999999999999999999"),
               std::invalid_argument);
}

TEST(StartsWith, Basic) {
  EXPECT_TRUE(starts_with("prefix-rest", "prefix"));
  EXPECT_FALSE(starts_with("pre", "prefix"));
  EXPECT_TRUE(starts_with("anything", ""));
}

}  // namespace
}  // namespace eotora::util
