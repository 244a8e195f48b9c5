#include "util/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <type_traits>

namespace eotora::util {
namespace {

TEST(Json, DefaultIsNull) {
  Json value;
  EXPECT_TRUE(value.is_null());
  EXPECT_EQ(value.dump(), "null");
}

TEST(Json, Scalars) {
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(0.5).dump(), "0.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
  EXPECT_EQ(Json(42).dump(), "42");
}

TEST(Json, TypedAccessorsRejectMismatch) {
  EXPECT_THROW((void)Json(1.0).as_string(), std::invalid_argument);
  EXPECT_THROW((void)Json("x").as_number(), std::invalid_argument);
  EXPECT_THROW((void)Json(true).as_string(), std::invalid_argument);
  EXPECT_THROW((void)Json(1.0).at(0), std::invalid_argument);
  EXPECT_THROW((void)Json(1.0).at("k"), std::invalid_argument);
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Json object = Json::object();
  object["zebra"] = 1;
  object["alpha"] = 2;
  object["mid"] = 3;
  EXPECT_EQ(object.dump(), "{\"zebra\":1,\"alpha\":2,\"mid\":3}");
  EXPECT_TRUE(object.contains("mid"));
  EXPECT_FALSE(object.contains("missing"));
  EXPECT_TRUE(object.erase("alpha"));
  EXPECT_FALSE(object.erase("alpha"));
  EXPECT_EQ(object.dump(), "{\"zebra\":1,\"mid\":3}");
}

TEST(Json, NestedValuesRoundTrip) {
  Json doc = Json::object();
  doc["name"] = "sweep";
  doc["count"] = 3;
  Json record = Json::object();
  record["policy"] = "dpp-bdma";
  record["latency"] = 7.652;
  record["flags"] = Json::array();
  Json records = Json::array();
  records.push_back(record);
  records.push_back(Json());
  doc["records"] = records;

  const Json reparsed = Json::parse(doc.dump());
  EXPECT_EQ(reparsed.dump(), doc.dump());
  EXPECT_EQ(reparsed.at("records").at(0).at("policy").as_string(),
            "dpp-bdma");
  // Pretty printing parses back to the same value.
  EXPECT_EQ(Json::parse(doc.dump(2)).dump(), doc.dump());
}

TEST(Json, EscapingRoundTrips) {
  const std::string nasty =
      "quote \" backslash \\ newline \n tab \t bell \x07 slash /";
  const Json value(nasty);
  const std::string dumped = value.dump();
  EXPECT_NE(dumped.find("\\\""), std::string::npos);
  EXPECT_NE(dumped.find("\\\\"), std::string::npos);
  EXPECT_NE(dumped.find("\\n"), std::string::npos);
  EXPECT_NE(dumped.find("\\u0007"), std::string::npos);
  EXPECT_EQ(Json::parse(dumped).as_string(), nasty);
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  EXPECT_EQ(Json::parse("\"\\u00e9\"").as_string(), "\u00e9");
  EXPECT_EQ(Json::parse("\"\\u20ac\"").as_string(), "\u20ac");
  // Surrogate pair: U+1F600.
  EXPECT_EQ(Json::parse("\"\\ud83d\\ude00\"").as_string(), "\U0001F600");
  EXPECT_THROW((void)Json::parse("\"\\ud83d\""), std::invalid_argument);
  EXPECT_THROW((void)Json::parse("\"\\ude00\""), std::invalid_argument);
}

TEST(Json, NumberFormattingRoundTrips) {
  for (const double value :
       {0.0, -0.0, 1.0, -1.0, 0.85, 1.0 / 3.0, 6.02e23, 1e-300,
        123456789.123456789, std::numeric_limits<double>::max(),
        std::numeric_limits<double>::denorm_min(), 7.652}) {
    const std::string text = format_json_number(value);
    const Json reparsed = Json::parse(text);
    ASSERT_TRUE(reparsed.is_number()) << text;
    EXPECT_EQ(reparsed.as_number(), value) << text;
  }
  // Shortest form: integral doubles have no decimal point.
  EXPECT_EQ(format_json_number(288.0), "288");
  EXPECT_EQ(format_json_number(0.85), "0.85");
}

TEST(Json, NonFiniteNumbersSerializeAsNull) {
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
}

TEST(Json, ParserRejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "1.2.3", "\"unterminated",
        "{\"a\":1} trailing", "[1 2]", "nul", "\"bad \\x escape\"",
        "01a", "-", "[1,2,]", "{\"a\" 1}"}) {
    EXPECT_THROW((void)Json::parse(bad), std::invalid_argument) << bad;
  }
}

TEST(Json, ParserRejectsLeadingZeros) {
  // RFC 8259: a multi-digit integer part must not start with '0'.
  for (const char* bad : {"0123", "-012", "00", "[01]", "{\"a\":007}"}) {
    EXPECT_THROW((void)Json::parse(bad), std::invalid_argument) << bad;
  }
  EXPECT_EQ(Json::parse("0").as_number(), 0.0);
  EXPECT_EQ(Json::parse("-0.5").as_number(), -0.5);
  EXPECT_EQ(Json::parse("10").as_number(), 10.0);
  EXPECT_EQ(Json::parse("0e3").as_number(), 0.0);
  EXPECT_EQ(Json::parse("0.125").as_number(), 0.125);
}

TEST(Json, NonStringPointersDoNotConstruct) {
  // Guards against `doc["x"] = some_ptr` compiling via the bool constructor
  // and silently storing `true`.
  static_assert(!std::is_constructible_v<Json, int*>);
  static_assert(!std::is_constructible_v<Json, void*>);
  static_assert(!std::is_constructible_v<Json, const double*>);
  static_assert(std::is_constructible_v<Json, const char*>);
  static_assert(std::is_constructible_v<Json, char*>);
  static_assert(std::is_constructible_v<Json, bool>);
}

TEST(Json, ParserAcceptsWhitespaceAndNesting) {
  const Json value = Json::parse(
      " { \"a\" : [ 1 , 2.5e1 , { \"b\" : null } ] , \"c\" : false } ");
  EXPECT_EQ(value.at("a").at(1).as_number(), 25.0);
  EXPECT_TRUE(value.at("a").at(2).at("b").is_null());
  EXPECT_FALSE(value.at("c").as_bool());
}

TEST(Json, PrettyPrintShape) {
  Json doc = Json::object();
  doc["a"] = 1;
  Json inner = Json::array();
  inner.push_back(2);
  doc["b"] = inner;
  EXPECT_EQ(doc.dump(2),
            "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
  EXPECT_EQ(Json::object().dump(2), "{}");
  EXPECT_EQ(Json::array().dump(2), "[]");
}

TEST(Json, WriteJsonFile) {
  const std::string path = "/tmp/eotora_test_json_write.json";
  Json doc = Json::object();
  doc["ok"] = true;
  write_json_file(path, doc);
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::string text((std::istreambuf_iterator<char>(file)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(Json::parse(text).dump(), doc.dump());
  std::remove(path.c_str());
  EXPECT_THROW(write_json_file("/nonexistent-dir/x.json", doc),
               std::runtime_error);
}

}  // namespace
}  // namespace eotora::util
