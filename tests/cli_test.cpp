// Tests for util::CliParser, for flotilla-run's numeric options, for its
// --journal/--recover files, and for the spec lines flotilla-fuzz --replay
// refuses. FLOTILLA_RUN_BIN and FLOTILLA_FUZZ_BIN are injected by
// tests/CMakeLists.txt.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

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

RunResult run_binary(const std::string& binary, const std::string& args) {
  const std::string cmd = binary + " " + args + " 2>&1";
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

RunResult run_tool(const std::string& args) {
  return run_binary(FLOTILLA_RUN_BIN, args);
}

// Each of these once ran a campaign with a silently changed value (a task
// or partition count wrapped through int, negative cores, an infinite or
// undefined duration) or died on an engine-internal check (a non-finite
// arrival parameter); now each is refused before anything runs.
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
      {"--clients 10 --tasks 20 --arrival closed:inf",
       "arrival: bad parameter: inf"},
      {"--clients 10 --tasks 20 --arrival poisson:nan",
       "arrival: bad parameter: nan"},
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

// ----------------------------------------------- flotilla-fuzz --replay

RunResult replay(const std::string& spec) {
  return run_binary(FLOTILLA_FUZZ_BIN, "--replay '" + spec + "'");
}

// A line the spec codec refuses exits 2 with its label, before anything
// runs; exit 1 is kept for invariant violations, so a malformed line never
// reads as a bug the fuzzer found.
void expect_refused(const std::string& spec, const std::string& message) {
  const auto result = replay(spec);
  EXPECT_EQ(result.exit_code, 2) << spec << "\n" << result.output;
  EXPECT_NE(result.output.find("error: " + message), std::string::npos)
      << spec << "\n" << result.output;
  EXPECT_EQ(result.output.find("violations:"), std::string::npos)
      << spec << "\n" << result.output;
}

TEST(FlotillaFuzzReplay, ValidSpecRunsAndHoldsEveryInvariant) {
  const auto result = replay("seed=1;nodes=2;tasks=8");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("done=8 failed=0"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("all invariants held"), std::string::npos)
      << result.output;
}

TEST(FlotillaFuzzReplay, MalformedNumbersExitTwo) {
  expect_refused("seed=1;duration=nan", "spec: non-finite duration: nan");
  expect_refused("seed=1;duration=-1", "spec: duration out of range: -1");
  expect_refused("seed=1;fail=2", "spec: fail out of range: 2");
  expect_refused("seed=1;clients=4;arrival=closed:inf",
                 "spec: non-finite arrival param: inf");
  expect_refused("seed=1;tasks=4294967306", "spec: tasks out of range");
}

TEST(FlotillaFuzzReplay, UnknownNamesExitTwo) {
  expect_refused("seed=1;workload=foo", "spec: unknown workload: foo");
  expect_refused("seed=1;backends=foo", "spec: unknown backend type: foo");
  expect_refused("seed=1;router=foo", "spec: unknown router: foo");
  expect_refused("seed=1;dragon_queue=foo", "spec: unknown dragon queue: foo");
  expect_refused("seed=1;clients=4;admit=reject:-1",
                 "spec: admit capacity out of range: -1");
  expect_refused("seed=1;clients=4;arrival=foo:1", "arrival: unknown kind: foo");
}

// Integers are taken only in the form the spec encoder writes: a negative
// seed or crash point once wrapped to a huge unsigned value, '+' and blanks
// were accepted, and a repeated key silently replaced the first value.
TEST(FlotillaFuzzReplay, NonCanonicalIntegersAndRepeatedKeysExitTwo) {
  expect_refused("seed=-1;nodes=2;tasks=8", "spec: bad integer for seed: -1");
  expect_refused("seed=1;crash_at=-1", "spec: bad integer for crash_at: -1");
  expect_refused("seed=1;tasks=+11", "spec: bad integer for tasks: +11");
  expect_refused("seed=1;tasks= 11", "spec: bad integer for tasks:  11");
  expect_refused("seed=+1", "spec: bad integer for seed: +1");
  expect_refused("seed=1;nodes=2;tasks=11;duration=0;tasks=20",
                 "spec: repeated key tasks");
}

TEST(FlotillaFuzzReplay, RetiredEngineShapeKeysExitTwo) {
  expect_refused("seed=1;shards=2", "spec: retired key shards");
  expect_refused("seed=1;threads=4", "spec: retired key threads");
}

// The in-process run-twice oracle cannot see an order that depends on
// addresses (a pointer-keyed container, a hash of a pointer): both runs
// share one address layout. Two processes get two layouts under ASLR, so
// each replay must print the same output in both. The lines are scenarios
// 7, 53, 1 and 5 of `flotilla-fuzz --scenarios 200 --seed-base 1
// --verbose`: flux+dragon, prrte, srun+dragon with a crash point (the
// recovery oracle runs too), and ingress from 10^6 clients into flux.
TEST(FlotillaFuzzReplay, SameOutputInTwoProcesses) {
  const char* const specs[] = {
      "seed=3711657641814975459;nodes=10;backends=flux:p2:n5:d1,dragon:p1:"
      "n5:d64;workload=impeccable;tasks=95;duration=7.9635300053696332;"
      "cores=56;gpus=0;fail=0;retries=0;router=adaptive;placement=first-fit;"
      "dragon_queue=fifo",
      "seed=7599522501230538566;nodes=2;backends=prrte:p1:n2:d64;workload="
      "hetero;tasks=64;duration=5.1614374270616237;cores=1;gpus=0;fail="
      "0.18089448925409385;retries=1;router=static;placement=gpu-pack;"
      "dragon_queue=fifo;faults=cancel@4.7982474096272973:4",
      "seed=1127669293739925696;nodes=8;backends=srun:p1:n4:d64,dragon:p1:"
      "n4:d64;workload=hetero;tasks=48;duration=2.1645154781605411;cores=1;"
      "gpus=0;fail=0;retries=2;router=static;placement=first-fit;"
      "dragon_queue=priority;faults=crash@8.9305061111643109:dragon:0;"
      "crash_at=347",
      "seed=2548621935365141227;nodes=12;backends=flux:p3:n12:d1;workload="
      "sleep;tasks=13;duration=4.50092118771075;cores=56;gpus=0;fail="
      "0.044905215387570856;retries=0;router=static;placement=best-fit;"
      "dragon_queue=fifo;clients=1000000;arrival=poisson:2426.6029982234472;"
      "admit=reject:0;faults=crash@12.111561474275591:flux:1",
  };
  for (const char* spec : specs) {
    const auto first = replay(spec);
    const auto second = replay(spec);
    EXPECT_EQ(first.exit_code, 0) << spec << "\n" << first.output;
    EXPECT_NE(first.output.find(" fingerprint="), std::string::npos)
        << first.output;
    EXPECT_EQ(first.output, second.output) << spec;
  }
}

// ------------------------------------------------ flotilla-run journals

// A directory of its own for one test's files, removed afterwards.
class TempDir {
 public:
  TempDir()
      : path_(std::filesystem::temp_directory_path() /
              ("flotilla-cli-test-" +
               std::string(::testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->name()) +
               "-" + std::to_string(::getpid()))) {
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  std::string file(const std::string& name) const { return path_ / name; }

 private:
  std::filesystem::path path_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// A service-mode run: 5,000 offers from 10,000 open-loop clients through
// ingress into dragon, 35,003 journal records.
const std::string kServiceRun =
    "--backend dragon --nodes 16 --workload null --clients 10000 "
    "--tasks 5000 --seed 42";

TEST(FlotillaRunJournal, FailedJournalWriteIsAnError) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this system";
  }
  const auto result = run_tool(
      "--backend flux --nodes 4 --workload null --tasks 200 --seed 1 "
      "--journal /dev/full");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("cannot write --journal '/dev/full'"),
            std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("journal: /dev/full"), std::string::npos)
      << result.output;
}

TEST(FlotillaRunJournal, IngressJournalBytesArePinned) {
  // Length and digest of the v=2 journal, a record-for-record
  // transcription of the 3,084,051-byte v=1 journal this run wrote before.
  const TempDir dir;
  const auto path = dir.file("service.jrn");
  const auto result = run_tool(kServiceRun + " --journal " + path);
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("journal: " + path +
                               " (35003 records, 1188459 bytes)"),
            std::string::npos)
      << result.output;
  const auto bytes = read_file(path);
  EXPECT_EQ(bytes.size(), 1188459u);
  const auto digest = fnv1a64(kFnv64Basis, bytes);  // FNV-1a-64
  EXPECT_EQ(digest, 0x1e37550dcb05e52dull) << std::hex << "digest 0x" << digest;
}

TEST(FlotillaRunJournal, RecoversFromAJournalTornInHalf) {
  const TempDir dir;
  const auto path = dir.file("service.jrn");
  const auto run = run_tool(kServiceRun + " --journal " + path);
  ASSERT_EQ(run.exit_code, 0) << run.output;
  const auto bytes = read_file(path);
  // Half the records survive whole; the cut lands in the middle of the
  // next one.
  std::size_t cut = 0;
  for (int line = 0; line < 17500; ++line) cut = bytes.find('\n', cut) + 1;
  cut += (bytes.find('\n', cut) - cut) / 2;
  ASSERT_NE(bytes[cut - 1], '\n') << "the cut must land mid-line";
  const auto torn = dir.file("torn.jrn");
  std::ofstream(torn, std::ios::binary) << bytes.substr(0, cut);

  const auto recovered = run_tool(kServiceRun + " --recover " + torn);
  ASSERT_EQ(recovered.exit_code, 0) << recovered.output;
  const auto lines = lines_of(recovered.output);
  const auto reference = lines_of(run.output);
  ASSERT_GE(lines.size(), 3u) << recovered.output;
  ASSERT_GE(reference.size(), 2u) << run.output;
  EXPECT_EQ(lines[0].rfind("recovering from " + torn + ": 17500 records (", 0),
            0u)
      << lines[0];
  EXPECT_NE(lines[0].find(", torn tail of "), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find(" bytes discarded)"), std::string::npos) << lines[0];
  EXPECT_EQ(lines[1],
            "recovery ok: 17500 journaled records validated, run continued "
            "to 35003 records");
  // Past the journal lines, the recovered run prints what the
  // uninterrupted one did.
  EXPECT_EQ(reference[0].rfind("journal: ", 0), 0u) << reference[0];
  EXPECT_EQ(std::vector<std::string>(lines.begin() + 2, lines.end()),
            std::vector<std::string>(reference.begin() + 1, reference.end()));
}

// A journal of the previous format (v=1: uids, state names, `from` and
// every default written out), refused by its header's label before
// anything runs.
TEST(FlotillaRunJournal, RefusesAVersionOneJournal) {
  const TempDir dir;
  const auto path = dir.file("v1.jrn");
  std::ofstream(path, std::ios::binary)
      << "journal|v=1|seed=42|spec=tool=flotilla-run;backend=dragon;nodes=16;"
         "partitions=1;workload=null;tasks=5000;duration=180;cores=1;seed=42;"
         "router=static;clients=10000;arrival=poisson;admit=reject"
         "|h=e0ee7a0e\n"
         "ready|t=61.736037577|h=c5cc2676\n"
         "task|t=61.741057269|uid=task.000000|from=NEW|to=TMGR_SCHEDULING"
         "|backend=|attempt=0|h=df37d405\n";
  const auto result = run_tool(kServiceRun + " --recover " + path);
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("error: journal: corrupt record #0: "
                               "unsupported journal version 1 (this build "
                               "reads v=2)"),
            std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("recovering from"), std::string::npos)
      << result.output;
}

// ------------------------------------------------ flotilla-run --config

// An infinite collect cost would run a campaign that completes nothing and
// still exits 0 ("tasks done/failed: 0/0", makespan 0 s), so the config is
// refused before anything runs.
TEST(FlotillaRunConfig, RefusesNonFiniteCalibrationValues) {
  const TempDir dir;
  for (const std::string value : {"inf", "nan"}) {
    const auto path = dir.file("calibration-" + value + ".conf");
    std::ofstream(path) << "core.collect_cost = " << value << "\n";
    const auto result = run_tool(
        "--backend flux --nodes 4 --workload null --tasks 20 --seed 1 "
        "--config " + path);
    EXPECT_EQ(result.exit_code, 2) << value << "\n" << result.output;
    EXPECT_NE(result.output.find("calibration key 'core.collect_cost' must "
                                 "be finite and non-negative, got '" +
                                 value + "'"),
              std::string::npos)
        << result.output;
    EXPECT_EQ(result.output.find("tasks done/failed"), std::string::npos)
        << result.output;
  }
}

// Numbers the config used to take in some other text, or wrap, are refused
// with their key before anything runs.
TEST(FlotillaRunConfig, RefusesMalformedNumbers) {
  const TempDir dir;
  const struct {
    const char* line;
    const char* key;
  } cases[] = {
      {"flux.sched_cost =", "flux.sched_cost"},
      {"flux.sched_cost = 0x1p-3", "flux.sched_cost"},
      {"platform.smt =", "platform.smt"},
      {"platform.cores_per_node = 4294967297", "platform.cores_per_node"},
  };
  int n = 0;
  for (const auto& c : cases) {
    const auto path = dir.file("numbers-" + std::to_string(n++) + ".conf");
    std::ofstream(path) << c.line << "\n";
    const auto result = run_tool(
        "--backend flux --nodes 4 --workload null --tasks 20 --seed 1 "
        "--config " + path);
    EXPECT_EQ(result.exit_code, 2) << c.line << "\n" << result.output;
    EXPECT_NE(result.output.find(std::string("config key '") + c.key + "'"),
              std::string::npos)
        << result.output;
    EXPECT_EQ(result.output.find("tasks done/failed"), std::string::npos)
        << result.output;
  }
}

}  // namespace
}  // namespace flotilla::util
