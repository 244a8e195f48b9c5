#include "util/args.h"

#include <gtest/gtest.h>

namespace eotora::util {
namespace {

Args make(std::vector<const char*> argv, std::set<std::string> allowed) {
  argv.insert(argv.begin(), "prog");
  return Args(static_cast<int>(argv.size()), argv.data(),
              std::move(allowed));
}

TEST(Args, ParsesKeyValuePairs) {
  const Args args = make({"--v=100", "--policy=bdma"}, {"v", "policy"});
  EXPECT_TRUE(args.has("v"));
  EXPECT_DOUBLE_EQ(args.get_double("v", 0.0), 100.0);
  EXPECT_EQ(args.get("policy", ""), "bdma");
}

TEST(Args, FlagWithoutValue) {
  const Args args = make({"--help"}, {"help"});
  EXPECT_TRUE(args.has("help"));
  EXPECT_EQ(args.get("help", "x"), "");
}

TEST(Args, DefaultsWhenAbsent) {
  const Args args = make({}, {"v"});
  EXPECT_FALSE(args.has("v"));
  EXPECT_DOUBLE_EQ(args.get_double("v", 2.5), 2.5);
  EXPECT_EQ(args.get_int("v", 7), 7);
  EXPECT_EQ(args.get("v", "dflt"), "dflt");
}

TEST(Args, RejectsUnknownKey) {
  EXPECT_THROW(make({"--nope=1"}, {"v"}), std::invalid_argument);
}

TEST(Args, RejectsNonDashToken) {
  EXPECT_THROW(make({"bare"}, {"v"}), std::invalid_argument);
}

TEST(Args, RejectsNonNumericValue) {
  const Args args = make({"--v=abc"}, {"v"});
  EXPECT_THROW((void)args.get_double("v", 0.0), std::invalid_argument);
}

TEST(Args, RejectsNonIntegerForInt) {
  const Args args = make({"--n=1.5"}, {"n"});
  EXPECT_THROW((void)args.get_int("n", 0), std::invalid_argument);
  const Args ok = make({"--n=12"}, {"n"});
  EXPECT_EQ(ok.get_int("n", 0), 12);
}

TEST(Args, ValueMayContainEquals) {
  const Args args = make({"--path=/a=b/c"}, {"path"});
  EXPECT_EQ(args.get("path", ""), "/a=b/c");
}

// Repeated flags used to be silently last-wins: "--devices=10 --devices=90"
// ran with 90 devices and no hint that the first value was dropped.
TEST(Args, RejectsDuplicateFlag) {
  try {
    make({"--devices=10", "--devices=90"}, {"devices"});
    FAIL() << "duplicate flag was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("duplicate option '--devices'"),
              std::string::npos)
        << error.what();
  }
}

TEST(Args, RejectsDuplicateValuelessFlag) {
  EXPECT_THROW(make({"--stream", "--stream"}, {"stream"}),
               std::invalid_argument);
  // A value form plus a bare form of the same key is also a duplicate.
  EXPECT_THROW(make({"--audit=off", "--audit"}, {"audit"}),
               std::invalid_argument);
}

// get_int used to parse through double and truncate, which silently rounds
// above 2^53 and accepted "3.7" as 3.
TEST(Args, GetIntIsExactForLargeValues) {
  const Args args = make({"--n=9007199254740993"}, {"n"});
  EXPECT_EQ(args.get_int("n", 0), 9007199254740993L);
}

TEST(Args, GetIntRejectsNonFiniteAndOverflow) {
  EXPECT_THROW((void)make({"--n=inf"}, {"n"}).get_int("n", 0),
               std::invalid_argument);
  EXPECT_THROW((void)make({"--n=nan"}, {"n"}).get_int("n", 0),
               std::invalid_argument);
  EXPECT_THROW((void)make({"--n=99999999999999999999"}, {"n"}).get_int("n", 0),
               std::invalid_argument);
}

// Counts, sizes and seeds used to be static_cast from get_int, so a negative
// value wrapped to a huge unsigned one (--horizon=-5 ran ~forever).
TEST(Args, GetUintRejectsNegativeValuesNamingTheOption) {
  try {
    (void)make({"--horizon=-5"}, {"horizon"}).get_uint("horizon", 0);
    FAIL() << "negative value was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string(error.what()),
              "option '--horizon' expects a non-negative integer, got '-5'");
  }
  EXPECT_THROW((void)make({"--n=-1"}, {"n"}).get_uint("n", 0),
               std::invalid_argument);
}

TEST(Args, GetUintParsesCountsAndDefaults) {
  EXPECT_EQ(make({"--n=0"}, {"n"}).get_uint("n", 7), 0u);
  EXPECT_EQ(make({"--n=12"}, {"n"}).get_uint("n", 7), 12u);
  EXPECT_EQ(make({}, {"n"}).get_uint("n", 7), 7u);
  EXPECT_EQ(make({"--n=9007199254740993"}, {"n"}).get_uint("n", 0),
            9007199254740993u);
}

TEST(Args, GetUintEnforcesTheMinimumNamingTheOption) {
  try {
    (void)make({"--days=0"}, {"days"}).get_uint("days", 7, 1);
    FAIL() << "a value below the minimum was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string(error.what()),
              "option '--days' must be at least 1, got '0'");
  }
  EXPECT_EQ(make({"--days=1"}, {"days"}).get_uint("days", 7, 1), 1u);
  EXPECT_EQ(make({}, {"days"}).get_uint("days", 7, 1), 7u);
}

TEST(Args, GetUintRejectsNonIntegers) {
  for (const char* token :
       {"--n=1.5", "--n=abc", "--n=", "--n=inf", "--n=99999999999999999999"}) {
    try {
      (void)make({token}, {"n"}).get_uint("n", 0);
      ADD_FAILURE() << token << " was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("non-negative integer"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(Args, GetDoubleRejectsNonFinite) {
  EXPECT_THROW((void)make({"--v=inf"}, {"v"}).get_double("v", 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)make({"--v=1e999"}, {"v"}).get_double("v", 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace eotora::util
