// util::Flags: both value syntaxes, booleans, and every input error the
// front ends must reject with a FlagError naming the flag.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/front_end.hpp"
#include "util/flags.hpp"

namespace lossburst {
namespace {

const util::FlagSet kSpec = {
    {"flows", "N", "flow count"},
    {"duration", "S", "seconds"},
    {"name", "TEXT", ""},
    {"paced", "", "boolean"},
};

util::Flags parse(std::vector<std::string> args, const util::FlagSet& spec = kSpec) {
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return util::Flags(argv, spec);
}

/// The FlagError message for `args`, or "" when they parse.
std::string error_of(std::vector<std::string> args, const util::FlagSet& spec = kSpec) {
  try {
    (void)parse(std::move(args), spec);
  } catch (const util::FlagError& e) {
    return e.what();
  }
  return "";
}

std::string integer_error(const std::string& value) {
  try {
    (void)parse({"--flows", value}).integer("flows", 16, 1, 4096);
  } catch (const util::FlagError& e) {
    return e.what();
  }
  return "";
}

std::string number_error(const std::string& value) {
  try {
    (void)parse({"--duration=" + value}).number("duration", 30, 0.001, 86'400);
  } catch (const util::FlagError& e) {
    return e.what();
  }
  return "";
}

TEST(FlagsTest, BothValueSyntaxesAgree) {
  const util::Flags spaced = parse({"--flows", "8", "--name", "x y"});
  const util::Flags joined = parse({"--flows=8", "--name=x y"});
  EXPECT_EQ(spaced.integer("flows", 16, 1, 100), 8u);
  EXPECT_EQ(joined.integer("flows", 16, 1, 100), 8u);
  EXPECT_EQ(spaced.text("name", ""), "x y");
  EXPECT_EQ(joined.text("name", ""), "x y");
}

TEST(FlagsTest, AbsentFlagsGiveTheirFallback) {
  const util::Flags f = parse({});
  EXPECT_EQ(f.integer("flows", 16, 1, 100), 16u);
  EXPECT_EQ(f.number("duration", 2.5, 0, 10), 2.5);
  EXPECT_EQ(f.text("name", "dflt"), "dflt");
  EXPECT_FALSE(f.flag("paced"));
  EXPECT_FALSE(f.has("flows"));
}

TEST(FlagsTest, BareFlagIsBoolean) {
  const util::Flags f = parse({"--paced", "--flows", "4"});
  EXPECT_TRUE(f.flag("paced"));
  EXPECT_TRUE(f.has("paced"));
  EXPECT_EQ(f.integer("flows", 16, 1, 100), 4u);
}

TEST(FlagsTest, RepeatedFlagKeepsTheLastValue) {
  EXPECT_EQ(parse({"--flows", "4", "--flows=9"}).integer("flows", 16, 1, 100), 9u);
}

TEST(FlagsTest, NumbersAcceptNegativeValuesInTheSpacedForm) {
  const util::Flags f = parse({"--duration", "-3"});
  EXPECT_EQ(f.number("duration", 1, -10, 10), -3.0);
}

TEST(FlagsTest, BooleanGivenAValueIsRejected) {
  EXPECT_EQ(error_of({"--paced=1"}), "--paced takes no value");
  EXPECT_EQ(error_of({"--paced", "1"}), "unexpected argument '1'");
}

TEST(FlagsTest, MissingValueIsRejected) {
  EXPECT_EQ(error_of({"--flows"}), "--flows needs a value (N)");
  EXPECT_EQ(error_of({"--flows", "--paced"}), "--flows needs a value (N)");
}

TEST(FlagsTest, UnknownFlagAndStrayArgumentsAreRejected) {
  EXPECT_EQ(error_of({"--flow", "4"}), "unknown flag --flow");
  EXPECT_EQ(error_of({"--flow=4"}), "unknown flag --flow");
  EXPECT_EQ(error_of({"flows"}), "unexpected argument 'flows'");
  EXPECT_EQ(error_of({"-h"}), "unexpected argument '-h'");
  EXPECT_EQ(error_of({"--"}), "unexpected argument '--'");
}

TEST(FlagsTest, ShortHelpIsAcceptedOnlyWhereHelpIsDeclared) {
  const util::FlagSet spec = {{"help", "", ""}};
  EXPECT_TRUE(parse({"-h"}, spec).flag("help"));
  EXPECT_TRUE(parse({"--help"}, spec).flag("help"));
}

TEST(FlagsTest, MalformedIntegersAreRejected) {
  EXPECT_EQ(integer_error("abc"), "--flows: 'abc' is not a non-negative integer");
  EXPECT_EQ(integer_error(""), "--flows: '' is not a non-negative integer");
  EXPECT_EQ(integer_error("4x"), "--flows: '4x' is not a non-negative integer");
  EXPECT_EQ(integer_error("4.5"), "--flows: '4.5' is not a non-negative integer");
  EXPECT_EQ(integer_error("-3"), "--flows: '-3' is not a non-negative integer");
  EXPECT_EQ(integer_error(" 4"), "--flows: ' 4' is not a non-negative integer");
}

TEST(FlagsTest, OutOfRangeIntegersAreRejected) {
  EXPECT_EQ(integer_error("0"), "--flows: 0 is out of range [1, 4096]");
  EXPECT_EQ(integer_error("4097"), "--flows: 4097 is out of range [1, 4096]");
  EXPECT_EQ(integer_error("99999999999999999999999"),
            "--flows: 99999999999999999999999 is out of range [1, 4096]");
  EXPECT_EQ(integer_error("4096"), "");
}

TEST(FlagsTest, MalformedAndOutOfRangeNumbersAreRejected) {
  const std::string range = " is not a number in [0.001, 86400]";
  EXPECT_EQ(number_error("abc"), "--duration: 'abc'" + range);
  EXPECT_EQ(number_error("1s"), "--duration: '1s'" + range);
  EXPECT_EQ(number_error(""), "--duration: ''" + range);
  EXPECT_EQ(number_error("-3"), "--duration: '-3'" + range);  // a negative duration
  EXPECT_EQ(number_error("0"), "--duration: '0'" + range);
  EXPECT_EQ(number_error("nan"), "--duration: 'nan'" + range);
  EXPECT_EQ(number_error("inf"), "--duration: 'inf'" + range);
  EXPECT_EQ(number_error("1e999"), "--duration: '1e999'" + range);
  EXPECT_EQ(number_error("2.5"), "");
}

TEST(FlagsTest, QueryingAnUndeclaredOrMistypedFlagIsAProgrammingError) {
  const util::Flags f = parse({});
  EXPECT_THROW((void)f.flag("robust"), std::logic_error);
  EXPECT_THROW((void)f.flag("flows"), std::logic_error);
  EXPECT_THROW((void)f.integer("paced", 0, 0, 1), std::logic_error);
  EXPECT_FALSE(f.declares("robust"));
  EXPECT_TRUE(f.declares("paced"));
}

TEST(FlagsTest, UsageListsEveryFlag) {
  const std::string u = util::usage_text("prog", kSpec);
  EXPECT_EQ(u.rfind("usage: prog [options]\n", 0), 0u);
  EXPECT_NE(u.find("  --flows N     flow count\n"), std::string::npos);
  EXPECT_NE(u.find("  --paced       boolean\n"), std::string::npos);
  EXPECT_NE(u.find("  --name TEXT\n"), std::string::npos);
  EXPECT_EQ(util::usage_text("prog", {}), "usage: prog\n");
}

TEST(FlagsTest, RunMainMapsErrorsToExitStatus) {
  std::string a0 = "prog", bad = "--nope", ok = "--paced";
  char* bad_argv[] = {a0.data(), bad.data()};
  char* ok_argv[] = {a0.data(), ok.data()};
  const auto body = [](const util::Flags& f) { return f.flag("paced") ? 7 : 0; };
  EXPECT_EQ(util::run_main(2, bad_argv, kSpec, body), 2);
  EXPECT_EQ(util::run_main(2, ok_argv, kSpec, body), 7);
  EXPECT_EQ(util::run_main(1, ok_argv, kSpec,
                           [](const util::Flags&) -> int { throw std::runtime_error("x"); }),
            1);
}

TEST(FrontEndFlagsTest, ObsFlagsAreBounded) {
  const util::FlagSet spec = core::kObsFlags;
  const auto cfg = core::obs_config(parse({"--obs-dir", "d", "--obs-interval=250",
                                           "--obs-trace-cap", "1024", "--obs-profile"},
                                          spec),
                                    "p_");
  EXPECT_EQ(cfg.dir, "d");
  EXPECT_EQ(cfg.prefix, "p_");
  EXPECT_EQ(cfg.interval, util::Duration::millis(250));
  EXPECT_EQ(cfg.trace_capacity, 1024u);
  EXPECT_TRUE(cfg.profile);
  EXPECT_THROW((void)core::obs_config(parse({"--obs-interval=0"}, spec), ""), util::FlagError);
  EXPECT_THROW((void)core::obs_config(parse({"--obs-interval=abc"}, spec), ""),
               util::FlagError);
  EXPECT_THROW((void)core::obs_config(parse({"--obs-trace-cap=0"}, spec), ""),
               util::FlagError);
}

TEST(FrontEndFlagsTest, FaultSeedNeedsAPlanAndMissingPlansAreInputErrors) {
  const util::FlagSet spec = core::kFaultFlags;
  EXPECT_TRUE(core::fault_plan(parse({}, spec)).empty());
  EXPECT_THROW((void)core::fault_plan(parse({"--fault-seed", "3"}, spec)), util::FlagError);
  try {
    (void)core::fault_plan(parse({"--fault-plan", "/nonexistent/x.plan"}, spec));
    ADD_FAILURE() << "no FlagError";
  } catch (const util::FlagError& e) {
    EXPECT_EQ(std::string(e.what()).rfind("bad fault plan: ", 0), 0u) << e.what();
  }
}

}  // namespace
}  // namespace lossburst
