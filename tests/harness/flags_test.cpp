// Tests for the reproduction binaries' flag parser — measurement
// harnesses that silently mis-parse their parameters produce
// wrong-but-plausible numbers, so the parser is tested like everything
// else.
#include "harness/flags.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace lfbst::bench {
namespace {

flags make(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return flags(static_cast<int>(args.size()),
               const_cast<char**>(args.data()));
}

TEST(Flags, HasDetectsBareAndAssignedForms) {
  EXPECT_TRUE(make({"--full"}).has("full"));
  EXPECT_TRUE(make({"--millis=5"}).has("millis"));
  EXPECT_FALSE(make({"--full"}).has("millis"));
  EXPECT_FALSE(make({}).has("full"));
}

TEST(Flags, GetSupportsBothSyntaxes) {
  EXPECT_EQ(make({"--algo=nm"}).get("algo", "x"), "nm");
  EXPECT_EQ(make({"--algo", "efrb"}).get("algo", "x"), "efrb");
  EXPECT_EQ(make({}).get("algo", "fallback"), "fallback");
}

TEST(Flags, GetIntParsesAndFallsBack) {
  EXPECT_EQ(make({"--millis=250"}).get_int("millis", 9), 250);
  EXPECT_EQ(make({"--millis", "42"}).get_int("millis", 9), 42);
  EXPECT_EQ(make({}).get_int("millis", 9), 9);
  EXPECT_EQ(make({"--millis=-3"}).get_int("millis", 9), -3);
}

TEST(Flags, GetIntListParsesCommaSeparated) {
  const auto v = make({"--threads=1,2,4,8"}).get_int_list("threads", {7});
  EXPECT_EQ(v, (std::vector<std::int64_t>{1, 2, 4, 8}));
}

TEST(Flags, GetIntListSingleElement) {
  const auto v = make({"--threads=16"}).get_int_list("threads", {7});
  EXPECT_EQ(v, (std::vector<std::int64_t>{16}));
}

TEST(Flags, GetIntListFallsBack) {
  const auto v = make({}).get_int_list("threads", {1, 2});
  EXPECT_EQ(v, (std::vector<std::int64_t>{1, 2}));
}

TEST(Flags, PrefixNamesDoNotCollide) {
  // --keyrange must not match --key, and vice versa.
  const flags f = make({"--keyrange=100"});
  EXPECT_FALSE(f.has("key"));
  EXPECT_EQ(f.get_int("keyrange", 0), 100);
}

TEST(Flags, LastOfRepeatedFlagsIsUsedDeterministically) {
  // Documented behaviour: first occurrence wins (scan order).
  const flags f = make({"--millis=1", "--millis=2"});
  EXPECT_EQ(f.get_int("millis", 0), 1);
}

TEST(Flags, UnknownFlagNamesTheFirstFlagNotRead) {
  EXPECT_EQ(make({"--threads=2", "--millis", "5"}).unknown_flag(
                {"threads", "millis"}),
            "");
  EXPECT_EQ(make({"--threads=2", "--bogus", "--help"}).unknown_flag(
                {"threads"}),
            "bogus");
  EXPECT_EQ(make({"--help"}).unknown_flag({"threads"}), "help");
  // Values and single-dash arguments are not flags.
  EXPECT_EQ(make({"--seed", "-3", "x"}).unknown_flag({"seed"}), "");
  // A prefix of a known name is still unknown.
  EXPECT_EQ(make({"--thread=2"}).unknown_flag({"threads"}), "thread");
}

TEST(Flags, UsageListsEveryFlagAndHelp) {
  const std::string u = flags::usage("prog", {"threads", "millis"});
  EXPECT_NE(u.find("usage: prog"), std::string::npos);
  EXPECT_NE(u.find("  --threads\n"), std::string::npos);
  EXPECT_NE(u.find("  --millis\n"), std::string::npos);
  EXPECT_NE(u.find("  --help\n"), std::string::npos);
  // A binary with its own --help lists it once.
  const std::string own = flags::usage("prog", {"help"});
  EXPECT_EQ(own.find("--help"), own.rfind("--help"));
}

flags make_checked(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return flags(static_cast<int>(args.size()), const_cast<char**>(args.data()),
               {"threads", "millis"});
}

TEST(FlagsDeathTest, HelpExitsZero) {
  EXPECT_EXIT(make_checked({"--millis=5", "--help"}),
              ::testing::ExitedWithCode(0), "");
}

TEST(FlagsDeathTest, UnknownFlagPrintsUsageAndExitsTwo) {
  EXPECT_EXIT(make_checked({"--millis=5", "--bogus=1"}),
              ::testing::ExitedWithCode(2),
              "prog: unknown flag --bogus\nusage: prog .*--threads");
}

TEST(Flags, CheckedFlagsAcceptTheFlagsTheyName) {
  const flags f = make_checked({"--threads", "4", "--millis=5"});
  EXPECT_EQ(f.get_int("threads", 0), 4);
  EXPECT_EQ(f.get_int("millis", 0), 5);
}

}  // namespace
}  // namespace lfbst::bench
