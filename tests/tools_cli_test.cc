#include "tools/cli_args.h"

#include <gtest/gtest.h>

namespace fluidfaas::tools {
namespace {

std::vector<char*> Argv(std::vector<std::string>& storage) {
  std::vector<char*> out;
  for (auto& s : storage) out.push_back(s.data());
  return out;
}

TEST(CliArgsTest, ParsesKeyValuePairs) {
  std::vector<std::string> raw = {"prog", "cmd", "--tier", "heavy",
                                  "--nodes", "4", "--load", "0.5"};
  auto argv = Argv(raw);
  CliArgs args(static_cast<int>(argv.size()), argv.data(), 2,
               {"tier", "nodes", "load"});
  EXPECT_EQ(args.GetString("tier", "x"), "heavy");
  EXPECT_EQ(args.GetInt("nodes", 0), 4);
  EXPECT_DOUBLE_EQ(args.GetDouble("load", 0.0), 0.5);
  EXPECT_TRUE(args.Has("tier"));
  EXPECT_FALSE(args.Has("seed"));
}

TEST(CliArgsTest, DefaultsWhenAbsent) {
  std::vector<std::string> raw = {"prog", "cmd"};
  auto argv = Argv(raw);
  CliArgs args(static_cast<int>(argv.size()), argv.data(), 2, {"tier"});
  EXPECT_EQ(args.GetString("tier", "medium"), "medium");
  EXPECT_EQ(args.GetInt("tier", 7), 7);
  EXPECT_DOUBLE_EQ(args.GetDouble("tier", 1.5), 1.5);
}

TEST(CliArgsTest, RejectsUnknownFlag) {
  std::vector<std::string> raw = {"prog", "cmd", "--bogus", "1"};
  auto argv = Argv(raw);
  EXPECT_THROW(
      CliArgs(static_cast<int>(argv.size()), argv.data(), 2, {"tier"}),
      FfsError);
}

TEST(CliArgsTest, RejectsMissingValue) {
  std::vector<std::string> raw = {"prog", "cmd", "--tier"};
  auto argv = Argv(raw);
  EXPECT_THROW(
      CliArgs(static_cast<int>(argv.size()), argv.data(), 2, {"tier"}),
      FfsError);
}

TEST(CliArgsTest, RejectsBareValue) {
  std::vector<std::string> raw = {"prog", "cmd", "heavy"};
  auto argv = Argv(raw);
  EXPECT_THROW(
      CliArgs(static_cast<int>(argv.size()), argv.data(), 2, {"tier"}),
      FfsError);
}

TEST(CliArgsTest, RejectsNonNumericValues) {
  std::vector<std::string> raw = {"prog", "cmd", "--nodes", "four"};
  auto argv = Argv(raw);
  CliArgs args(static_cast<int>(argv.size()), argv.data(), 2, {"nodes"});
  EXPECT_THROW(args.GetInt("nodes", 0), FfsError);
  EXPECT_THROW(args.GetDouble("nodes", 0.0), FfsError);
}

// Every malformed number is an FfsError (printed as "error: ..." with exit
// 1), never an uncaught std:: exception, a silent prefix or a wrap-around.
CliArgs Parse(std::vector<std::string> raw) {
  raw.insert(raw.begin(), {"prog", "cmd"});
  auto argv = Argv(raw);
  return CliArgs(static_cast<int>(argv.size()), argv.data(), 2,
                 {"seeds", "nodes", "gpus", "seed", "loads", "duration",
                  "tiers", "rate", "queue-cap"});
}

TEST(CliArgsTest, RejectsNonNumericListItem) {
  EXPECT_THROW(Parse({"--seeds", "abc"}).GetList<std::uint64_t>("seeds"),
               FfsError);
  EXPECT_THROW(Parse({"--seeds", "1,abc"}).GetList<std::uint64_t>("seeds"),
               FfsError);
}

TEST(CliArgsTest, RejectsNonPositiveOrOversizedCounts) {
  EXPECT_THROW(Parse({"--nodes", "-1"}).GetCount("nodes", 2), FfsError);
  EXPECT_THROW(Parse({"--gpus", "0"}).GetCount("gpus", 8), FfsError);
  EXPECT_THROW(Parse({"--nodes", "4294967297"}).GetCount("nodes", 2),
               FfsError);
  EXPECT_EQ(Parse({"--nodes", "3"}).GetCount("nodes", 2), 3);
  EXPECT_EQ(Parse({}).GetCount("nodes", 2), 2);
}

std::uint64_t Seed(const std::string& value) {
  return Parse({"--seed", value}).Get<std::uint64_t>("seed", 1234);
}

TEST(CliArgsTest, RejectsSignedSeeds) {
  EXPECT_THROW(Parse({"--seeds", "-1"}).GetList<std::uint64_t>("seeds"),
               FfsError);
  EXPECT_THROW(Seed("-1"), FfsError);
  EXPECT_THROW(Seed("+1"), FfsError);
  EXPECT_EQ(Seed("18446744073709551615"), 18446744073709551615ULL);
}

TEST(CliArgsTest, RejectsTrailingCharacters) {
  EXPECT_THROW(Parse({"--loads", "0.2,0.5x"}).GetList<double>("loads"),
               FfsError);
  EXPECT_THROW(Parse({"--duration", "5x"}).GetDouble("duration", 150.0),
               FfsError);
  EXPECT_THROW(Parse({"--nodes", "4 "}).GetInt("nodes", 2), FfsError);
}

TEST(CliArgsTest, RejectsFractionalIntegers) {
  EXPECT_THROW(Parse({"--nodes", "1.9"}).GetInt("nodes", 2), FfsError);
  EXPECT_THROW(Seed("1.5"), FfsError);
}

TEST(CliArgsTest, RejectsNonPositiveOrNonFiniteDuration) {
  EXPECT_THROW(Parse({"--duration", "0"}).GetPositive("duration", 150.0),
               FfsError);
  EXPECT_THROW(Parse({"--duration", "-5"}).GetPositive("duration", 150.0),
               FfsError);
  EXPECT_DOUBLE_EQ(Parse({"--duration", "2.5"}).GetPositive("duration", 1.0),
                   2.5);
  EXPECT_THROW(Parse({"--duration", "nan"}).GetDouble("duration", 150.0),
               FfsError);
  EXPECT_THROW(Parse({"--duration", "inf"}).GetDouble("duration", 150.0),
               FfsError);
}

TEST(CliArgsTest, RejectsNegativeRatesScalesAndLoads) {
  EXPECT_THROW(Parse({"--rate", "-5"}).GetNonNegative("rate", 0.0), FfsError);
  EXPECT_DOUBLE_EQ(Parse({"--rate", "0"}).GetNonNegative("rate", 1.0), 0.0);
  EXPECT_DOUBLE_EQ(Parse({}).GetNonNegative("rate", 1.5), 1.5);
  EXPECT_THROW(Parse({"--loads", "0.5,-1"}).GetNonNegativeList("loads"),
               FfsError);
  EXPECT_EQ(Parse({"--loads", "0,0.5"}).GetNonNegativeList("loads"),
            (std::vector<double>{0.0, 0.5}));
  EXPECT_THROW(
      Parse({"--queue-cap", "-1"}).Get<std::size_t>("queue-cap", 0),
      FfsError);
}

TEST(CliArgsTest, ParsesWellFormedLists) {
  const CliArgs args = Parse({"--seeds", "1,,2,3", "--loads", "0.2,1e-1"});
  EXPECT_EQ(args.GetList<std::uint64_t>("seeds"),
            (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(args.GetList<double>("loads"), (std::vector<double>{0.2, 0.1}));
  EXPECT_TRUE(args.GetList<double>("duration").empty());
  EXPECT_EQ(Parse({"--tiers", "light,,heavy"})
                .GetList<std::string>("tiers", "medium"),
            (std::vector<std::string>{"light", "heavy"}));
  EXPECT_EQ(Parse({}).GetList<std::string>("tiers", "medium"),
            (std::vector<std::string>{"medium"}));
}

TEST(CliArgsTest, LastOccurrenceWins) {
  std::vector<std::string> raw = {"prog", "cmd", "--seed", "1", "--seed",
                                  "2"};
  auto argv = Argv(raw);
  CliArgs args(static_cast<int>(argv.size()), argv.data(), 2, {"seed"});
  EXPECT_EQ(args.GetInt("seed", 0), 2);
}

}  // namespace
}  // namespace fluidfaas::tools
