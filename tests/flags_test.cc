// Unit tests for the shared command-line flag parser (src/support/flags.h):
// both value spellings, switches, `--` and positionals, --help, every
// complaint path, and the typed value hooks.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/support/flags.h"

namespace vc {
namespace {

struct Parsed {
  std::string name;
  bool verbose = false;
  int count = 5;
  double rate = 0.5;
  uint64_t seed = 1;
  std::vector<std::string> items;
};

FlagTable TestFlags(Parsed& p) {
  return {"tool",
          "usage: tool [options] ARG...\n\n",
          {
              {"--name", "NAME", "a string", StoreString(p.name)},
              {"--verbose", nullptr, "a switch", SetBool(p.verbose)},
              {"--count", "N", "an integer >= 1", StoreInt(p.count, 1)},
              {"--rate", "X", "a non-negative number", StoreDouble(p.rate)},
              {"--seed", "S", "an unsigned integer", StoreU64(p.seed)},
              {"--items", "LIST", "a comma list of known items",
               StoreList(p.items, [](const std::string& item) { return item != "bad"; },
                         "item")},
          },
          "notes after the rows\n"};
}

// Runs ParseFlags and captures what it printed.
struct Outcome {
  std::optional<int> exit;
  std::string out;
  std::string err;
};

Outcome Parse(Parsed& p, const std::vector<std::string>& args,
              std::vector<std::string>* positionals) {
  const FlagTable table = TestFlags(p);
  Outcome outcome;
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  outcome.exit = ParseFlags(table, args, positionals);
  outcome.out = ::testing::internal::GetCapturedStdout();
  outcome.err = ::testing::internal::GetCapturedStderr();
  return outcome;
}

TEST(Flags, BothValueSpellingsAndSwitches) {
  Parsed p;
  std::vector<std::string> positionals;
  Outcome o = Parse(p, {"--name=a=b", "--count", "7", "--verbose", "--rate=0", "--seed", "42"},
                    &positionals);
  EXPECT_FALSE(o.exit.has_value()) << o.err;
  EXPECT_EQ(p.name, "a=b");  // split at the first '=' only
  EXPECT_EQ(p.count, 7);
  EXPECT_TRUE(p.verbose);
  EXPECT_EQ(p.rate, 0.0);
  EXPECT_EQ(p.seed, 42u);
  EXPECT_TRUE(positionals.empty());
}

TEST(Flags, SpaceSpellingTakesTheNextArgumentVerbatim) {
  Parsed p;
  Outcome o = Parse(p, {"--name", "--verbose", "--name", ""}, nullptr);
  EXPECT_FALSE(o.exit.has_value()) << o.err;
  EXPECT_FALSE(p.verbose);
  EXPECT_EQ(p.name, "");  // the last occurrence wins
}

TEST(Flags, DoubleDashEndsFlagsAndPositionalsKeepOrder) {
  Parsed p;
  std::vector<std::string> positionals;
  Outcome o = Parse(p, {"a.c", "-", "--verbose", "-x", "--", "--count=3", "-h", "b.c"},
                    &positionals);
  EXPECT_FALSE(o.exit.has_value()) << o.err;
  EXPECT_TRUE(p.verbose);
  EXPECT_EQ(p.count, 5);
  EXPECT_EQ(positionals, (std::vector<std::string>{"a.c", "-", "-x", "--count=3", "-h", "b.c"}));
}

TEST(Flags, PositionalRejectedWhenTheCommandTakesNone) {
  Parsed p;
  Outcome o = Parse(p, {"--verbose", "stray"}, nullptr);
  EXPECT_EQ(o.exit, 2);
  EXPECT_NE(o.err.find("tool: unexpected argument 'stray'"), std::string::npos) << o.err;
  EXPECT_NE(o.err.find("usage: tool"), std::string::npos);
}

TEST(Flags, HelpPrintsTheRenderedTableOnStdout) {
  for (const char* help : {"--help", "-h"}) {
    Parsed p;
    Outcome o = Parse(p, {"--verbose", help, "--bogus"}, nullptr);
    EXPECT_EQ(o.exit, 0);
    EXPECT_EQ(o.out, RenderUsage(TestFlags(p)));
    EXPECT_TRUE(o.err.empty()) << o.err;
  }
}

TEST(Flags, UsageListsEveryRowAlignedAndTheEpilog) {
  Parsed p;
  std::string usage = RenderUsage(TestFlags(p));
  EXPECT_EQ(usage.rfind("usage: tool [options] ARG...\n\n", 0), 0u) << usage;
  EXPECT_NE(usage.find("  --name=NAME          a string\n"), std::string::npos) << usage;
  EXPECT_NE(usage.find("  --verbose            a switch\n"), std::string::npos) << usage;
  EXPECT_NE(usage.find("  --help, -h           print this summary\n"), std::string::npos);
  EXPECT_NE(usage.find("\nnotes after the rows\n"), std::string::npos);
}

TEST(Flags, LongHeadAndMultiLineHelpStayAligned) {
  int value = 0;
  FlagTable table = {"tool", "", {{"--a-very-long-flag-name", "VALUE", "one\ntwo", StoreInt(value, 0)}}};
  EXPECT_EQ(RenderUsage(table),
            "  --a-very-long-flag-name=VALUE\n"
            "                       one\n"
            "                       two\n"
            "  --help, -h           print this summary\n");
}

TEST(Flags, SwitchGivenAValueIsRejected) {
  Parsed p;
  Outcome o = Parse(p, {"--verbose=1"}, nullptr);
  EXPECT_EQ(o.exit, 2);
  EXPECT_FALSE(p.verbose);
  EXPECT_NE(o.err.find("tool: --verbose does not take a value"), std::string::npos) << o.err;
}

TEST(Flags, MissingValueIsRejected) {
  Parsed p;
  Outcome o = Parse(p, {"--verbose", "--count"}, nullptr);
  EXPECT_EQ(o.exit, 2);
  EXPECT_NE(o.err.find("tool: --count expects a value"), std::string::npos) << o.err;
  EXPECT_NE(o.err.find("usage: tool"), std::string::npos);
}

TEST(Flags, UnknownFlagIsRejected) {
  Parsed p;
  Outcome o = Parse(p, {"--colour=red"}, nullptr);
  EXPECT_EQ(o.exit, 2);
  EXPECT_NE(o.err.find("tool: unknown option --colour=red"), std::string::npos) << o.err;
}

TEST(Flags, IntegerFloorIsEnforced) {
  Parsed p;
  EXPECT_FALSE(Parse(p, {"--count=1"}, nullptr).exit.has_value());
  EXPECT_EQ(p.count, 1);
  Outcome o = Parse(p, {"--count=0"}, nullptr);
  EXPECT_EQ(o.exit, 2);
  EXPECT_EQ(p.count, 1);  // a rejected value leaves the target untouched
  EXPECT_NE(o.err.find("tool: --count: expects an integer >= 1, got '0'"), std::string::npos)
      << o.err;
  EXPECT_EQ(Parse(p, {"--count=99999999999"}, nullptr).exit, 2);
}

TEST(Flags, TrailingGarbageAndEmptyNumbersAreRejected) {
  const std::vector<std::vector<std::string>> bad = {
      {"--count=12x"}, {"--count="},   {"--count", "abc"}, {"--rate=0.5s"},
      {"--rate=-1"},   {"--rate=nan"}, {"--seed=x"},       {"--seed=7 "},
  };
  for (const std::vector<std::string>& args : bad) {
    Parsed p;
    Outcome o = Parse(p, args, nullptr);
    EXPECT_EQ(o.exit, 2) << args[0];
    EXPECT_NE(o.err.find("expects"), std::string::npos) << o.err;
    EXPECT_EQ(p.count, 5);
    EXPECT_EQ(p.rate, 0.5);
    EXPECT_EQ(p.seed, 1u);
  }
}

TEST(Flags, CommaListsTrimSkipEmptiesAndCheckItems) {
  Parsed p;
  EXPECT_FALSE(Parse(p, {"--items= a, ,b,"}, nullptr).exit.has_value());
  EXPECT_EQ(p.items, (std::vector<std::string>{"a", "b"}));
  EXPECT_FALSE(Parse(p, {"--items", "c"}, nullptr).exit.has_value());
  EXPECT_EQ(p.items, (std::vector<std::string>{"c"}));  // replaces, not appends

  Outcome unknown = Parse(p, {"--items=a,bad"}, nullptr);
  EXPECT_EQ(unknown.exit, 2);
  EXPECT_NE(unknown.err.find("tool: --items: unknown item 'bad'"), std::string::npos)
      << unknown.err;
  Outcome empty = Parse(p, {"--items= , "}, nullptr);
  EXPECT_EQ(empty.exit, 2);
  EXPECT_NE(empty.err.find("expects at least one item"), std::string::npos) << empty.err;
  EXPECT_EQ(p.items, (std::vector<std::string>{"c"}));
}

TEST(Flags, ApplyHooksRunInArgumentOrder) {
  Parsed p;
  Outcome o = Parse(p, {"--count=2", "--count=3", "--count=oops", "--count=4"}, nullptr);
  EXPECT_EQ(o.exit, 2);
  EXPECT_EQ(p.count, 3);  // parsing stops at the first complaint
}

}  // namespace
}  // namespace vc
