// Tests for util::CliParser and for flotilla-run's numeric options.
// FLOTILLA_RUN_BIN is injected by tests/CMakeLists.txt.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/error.hpp"

namespace flotilla::util {
namespace {

CliParser make_parser() {
  CliParser cli("test tool");
  cli.option("nodes", "16", "pilot size")
      .option("backend", "flux", "backend name")
      .option("rate", "1.5", "a rate")
      .flag("verbose", "chatty output");
  return cli;
}

bool parse(CliParser& cli, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return cli.parse(static_cast<int>(args.size()), args.data());
}

TEST(CliParser, DefaultsApplyWhenAbsent) {
  auto cli = make_parser();
  ASSERT_TRUE(parse(cli, {}));
  EXPECT_EQ(cli.get_int("nodes"), 16);
  EXPECT_EQ(cli.get("backend"), "flux");
  EXPECT_DOUBLE_EQ(cli.get_double("rate"), 1.5);
  EXPECT_FALSE(cli.get_flag("verbose"));
}

TEST(CliParser, SpaceAndEqualsSyntaxBothWork) {
  auto cli = make_parser();
  ASSERT_TRUE(parse(cli, {"--nodes", "64", "--backend=dragon"}));
  EXPECT_EQ(cli.get_int("nodes"), 64);
  EXPECT_EQ(cli.get("backend"), "dragon");
}

TEST(CliParser, FlagsAndPositionals) {
  auto cli = make_parser();
  ASSERT_TRUE(parse(cli, {"--verbose", "input.csv", "more"}));
  EXPECT_TRUE(cli.get_flag("verbose"));
  EXPECT_EQ(cli.positional(),
            (std::vector<std::string>{"input.csv", "more"}));
}

TEST(CliParser, HelpReturnsFalse) {
  auto cli = make_parser();
  EXPECT_FALSE(parse(cli, {"--help"}));
  EXPECT_NE(cli.usage().find("--nodes"), std::string::npos);
}

TEST(CliParser, UnknownOptionThrows) {
  auto cli = make_parser();
  EXPECT_THROW(parse(cli, {"--nodez", "4"}), Error);
}

TEST(CliParser, MissingValueThrows) {
  auto cli = make_parser();
  EXPECT_THROW(parse(cli, {"--nodes"}), Error);
}

TEST(CliParser, FlagWithValueThrows) {
  auto cli = make_parser();
  EXPECT_THROW(parse(cli, {"--verbose=yes"}), Error);
}

TEST(CliParser, TypeErrorsThrow) {
  auto cli = make_parser();
  ASSERT_TRUE(parse(cli, {"--nodes", "abc"}));
  EXPECT_THROW(cli.get_int("nodes"), Error);
  EXPECT_THROW(cli.get("undeclared"), Error);
  EXPECT_THROW(cli.get_flag("nodes"), Error);  // not a flag
}

// Expects `get` to throw a util::Error whose message contains `needle`.
template <typename Get>
void expect_error(Get get, const std::string& needle) {
  try {
    get();
    ADD_FAILURE() << "no error; expected one mentioning '" << needle << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(CliParser, EmptyNumericValuesThrow) {
  auto cli = make_parser();
  ASSERT_TRUE(parse(cli, {"--nodes=", "--rate="}));
  expect_error([&] { return cli.get_int("nodes"); }, "option --nodes");
  expect_error([&] { return cli.get_double("rate"); }, "option --rate");
}

TEST(CliParser, OutOfRangeNumbersThrow) {
  auto cli = make_parser();
  ASSERT_TRUE(parse(cli, {"--nodes", "99999999999999999999", "--rate",
                          "1e999"}));
  expect_error([&] { return cli.get_int("nodes"); },
               "option --nodes is out of range");
  expect_error([&] { return cli.get_double("rate"); },
               "option --rate is out of range");
}

TEST(CliParser, NonFiniteDoublesThrow) {
  for (const char* value : {"inf", "-inf", "nan", "infinity"}) {
    auto cli = make_parser();
    ASSERT_TRUE(parse(cli, {"--rate", value}));
    expect_error([&] { return cli.get_double("rate"); },
                 "option --rate is not finite");
  }
}

TEST(CliParser, WideIntegersStillParseAsLong) {
  // Narrowing is the caller's business (flotilla-run checks it below).
  auto cli = make_parser();
  ASSERT_TRUE(parse(cli, {"--nodes", "4294967306", "--rate", "0"}));
  EXPECT_EQ(cli.get_int("nodes"), 4294967306L);
  EXPECT_EQ(cli.get_double("rate"), 0.0);
}

TEST(CliParser, DuplicateDeclarationThrows) {
  CliParser cli;
  cli.option("x", "1", "");
  EXPECT_THROW(cli.option("x", "2", ""), Error);
  EXPECT_THROW(cli.flag("x", ""), Error);
}

// ------------------------------------------------- flotilla-run options

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout and stderr
};

RunResult run_tool(const std::string& args) {
  const std::string cmd = std::string(FLOTILLA_RUN_BIN) + " " + args + " 2>&1";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "popen failed for: " << cmd;
  RunResult result;
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  std::size_t n = 0;
  while ((n = std::fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), n);
  }
  const int status = ::pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

// Each of these once ran a campaign with a silently changed value (a task
// or partition count wrapped through int, negative cores, an infinite or
// undefined duration); now each is refused before anything runs.
TEST(FlotillaRunOptions, RefusesValuesItWouldWrapOrMisread) {
  const struct {
    const char* args;
    const char* message;
  } cases[] = {
      {"--tasks 4294967306", "option --tasks is out of range"},
      {"--partitions 4294967298", "option --partitions is out of range"},
      {"--nodes 4294967312", "option --nodes is out of range"},
      {"--clients 4294967297", "option --clients is out of range"},
      {"--cores 4294967297", "option --cores is out of range"},
      {"--cores -3 --tasks 10", "option --cores is out of range"},
      {"--tasks -5", "option --tasks is out of range"},
      {"--clients -1 --tasks 10", "option --clients is out of range"},
      {"--duration inf", "option --duration is not finite"},
      {"--duration nan", "option --duration is not finite"},
      {"--duration -1", "option --duration must not be negative"},
      {"--tasks=", "option --tasks needs an integer value"},
      {"--duration 1e999", "option --duration is out of range"},
  };
  for (const auto& c : cases) {
    const auto result = run_tool(c.args);
    EXPECT_EQ(result.exit_code, 2) << c.args << "\n" << result.output;
    EXPECT_NE(result.output.find(c.message), std::string::npos)
        << c.args << "\n" << result.output;
  }
}

TEST(FlotillaRunOptions, ZeroDurationStaysValid) {
  const auto result =
      run_tool("--workload dummy --duration 0 --tasks 10 --nodes 2");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("tasks done/failed:  10/0"), std::string::npos)
      << result.output;
}

}  // namespace
}  // namespace flotilla::util
