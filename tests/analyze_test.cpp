// Tests for the flotilla-analyze framework (src/analyze/) and binary
// (tools/flotilla_analyze.cpp): lexer edge cases against the library
// directly, call-graph resolution against in-test sources, pass
// detection against the seeded-violation fixture tree under
// tests/analyze_fixtures/ (one positive and one negative fixture per
// pass, including the PR1 ProcessPool callback-under-lock regression
// shape and the interprocedural deadlock/taint seeds), the determinism
// rules and their scope on named fixture files, SARIF output
// parsed and sanity-checked in-test, the --jobs byte-identity guarantee,
// and the baseline suppression round trip.
//
// FLOTILLA_ANALYZE_BIN, FLOTILLA_ANALYZE_FIXTURES and FLOTILLA_REPO_ROOT
// are injected by tests/CMakeLists.txt.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "analyze/callgraph.hpp"
#include "analyze/determinism.hpp"
#include "analyze/lexer.hpp"
#include "analyze/pass.hpp"
#include "analyze/scopes.hpp"

namespace {

namespace fa = flotilla::analyze;

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

struct RunResult {
  int exit_code = -1;
  std::vector<std::string> lines;  // stdout, split on newlines
};

RunResult run_command(const std::string& cmd) {
  FILE* pipe = ::popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "popen failed for: " << cmd;
  RunResult result;
  if (pipe == nullptr) return result;
  std::string output;
  std::array<char, 4096> buffer;
  std::size_t n = 0;
  while ((n = std::fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    output.append(buffer.data(), n);
  }
  const int status = ::pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::size_t begin = 0;
  while (begin < output.size()) {
    std::size_t end = output.find('\n', begin);
    if (end == std::string::npos) end = output.size();
    if (end > begin) result.lines.push_back(output.substr(begin, end - begin));
    begin = end + 1;
  }
  return result;
}

RunResult run_analyze(const std::string& args) {
  return run_command(std::string(FLOTILLA_ANALYZE_BIN) + " " + args +
                     " 2>/dev/null");
}

std::string fixtures() { return FLOTILLA_ANALYZE_FIXTURES; }

// Arguments that scan the fixture tree the way CI scans the repo.
std::string fixture_args() {
  return "--layers " + fixtures() + "/layers.conf --strip-prefix " +
         fixtures() + "/ " + fixtures() + "/src";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t count = 0, pos = 0;
  while ((pos = haystack.find(needle, pos)) != std::string::npos) {
    ++count;
    pos += needle.size();
  }
  return count;
}

bool has_identifier(const fa::LexedFile& lex, const std::string& name) {
  for (const fa::Token& tok : lex.tokens) {
    if (tok.kind == fa::TokenKind::kIdentifier && tok.text == name) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Minimal JSON validator (structure only, no value extraction): enough to
// prove the SARIF document is well-formed JSON, not just greppable text.
// ---------------------------------------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool valid() {
    pos_ = 0;
    if (!value()) return false;
    ws();
    return pos_ == text_.size();
  }

 private:
  void ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\r' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }
  bool literal(const char* word) {
    const std::size_t len = std::string::traits_type::length(word);
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }
  bool string_value() {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number_value() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool value() {
    ws();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number_value();
  }
  bool object() {
    ++pos_;  // '{'
    ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      ws();
      if (!string_value()) return false;
      ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      if (!value()) return false;
      ws();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      if (!value()) return false;
      ws();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Lexer edge cases
// ---------------------------------------------------------------------------

TEST(AnalyzeLexerTest, RawStringContentNeverLeaks) {
  const fa::LexedFile lex = fa::lex_string(
      "t.cpp",
      "auto s = R\"ev(rand() system_clock #include \"evil.hpp\")ev\";\n"
      "int after = 1;\n");
  EXPECT_FALSE(has_identifier(lex, "rand"));
  EXPECT_FALSE(has_identifier(lex, "system_clock"));
  EXPECT_TRUE(lex.includes.empty());
  EXPECT_TRUE(has_identifier(lex, "after"));
  // The raw string still shows up as one (emptied) string literal token.
  std::size_t strings = 0;
  std::size_t after_line = 0;
  for (const fa::Token& tok : lex.tokens) {
    if (tok.kind == fa::TokenKind::kString) ++strings;
    if (tok.text == "after") after_line = tok.line;
  }
  EXPECT_EQ(strings, 1u);
  EXPECT_EQ(after_line, 2u);  // line numbers survive the stripping
}

TEST(AnalyzeLexerTest, MultilineRawStringPreservesLineNumbers) {
  const fa::LexedFile lex = fa::lex_string(
      "t.cpp",
      "auto s = R\"(line one\nrand()\nsystem_clock\n)\";\nint tail = 2;\n");
  EXPECT_FALSE(has_identifier(lex, "rand"));
  for (const fa::Token& tok : lex.tokens) {
    if (tok.text == "tail") {
      EXPECT_EQ(tok.line, 5u);
    }
  }
}

TEST(AnalyzeLexerTest, CommentsAreStrippedIncludingNestedLookalikes) {
  const fa::LexedFile lex = fa::lex_string(
      "t.cpp",
      "/* block with // inside and rand() */ int x;\n"
      "// line with /* unterminated lookalike and system_clock\n"
      "int y; /* multi\nline\ncomment sleep_for() */ int z;\n");
  EXPECT_FALSE(has_identifier(lex, "rand"));
  EXPECT_FALSE(has_identifier(lex, "system_clock"));
  EXPECT_FALSE(has_identifier(lex, "sleep_for"));
  EXPECT_TRUE(has_identifier(lex, "x"));
  EXPECT_TRUE(has_identifier(lex, "y"));
  EXPECT_TRUE(has_identifier(lex, "z"));
  for (const fa::Token& tok : lex.tokens) {
    if (tok.text == "z") {
      EXPECT_EQ(tok.line, 5u);
    }
  }
}

TEST(AnalyzeLexerTest, StringifiedIncludeIsNotAnIncludeRecord) {
  const fa::LexedFile lex = fa::lex_string(
      "t.cpp",
      "const char* s = \"#include \\\"evil.hpp\\\"\";\n"
      "#include \"core/real.hpp\"\n"
      "#include <vector>\n");
  ASSERT_EQ(lex.includes.size(), 2u);
  EXPECT_EQ(lex.includes[0].path, "core/real.hpp");
  EXPECT_EQ(lex.includes[0].line, 2u);
  EXPECT_FALSE(lex.includes[0].system);
  EXPECT_EQ(lex.includes[1].path, "vector");
  EXPECT_TRUE(lex.includes[1].system);
}

TEST(AnalyzeLexerTest, ConditionalDirectivesAreSurfaced) {
  const fa::LexedFile lex = fa::lex_string(
      "t.cpp",
      "#if defined(FOO) && \\\n    defined(BAR)\n"
      "int a;\n"
      "#elif FOO > 1\n"
      "int b;\n"
      "#else\n"
      "int c;\n"
      "#endif\n");
  ASSERT_EQ(lex.conditionals.size(), 4u);
  EXPECT_EQ(lex.conditionals[0].kind, "if");
  EXPECT_NE(lex.conditionals[0].condition.find("defined(FOO)"),
            std::string::npos);
  EXPECT_NE(lex.conditionals[0].condition.find("defined(BAR)"),
            std::string::npos);
  EXPECT_EQ(lex.conditionals[1].kind, "elif");
  EXPECT_EQ(lex.conditionals[2].kind, "else");
  EXPECT_EQ(lex.conditionals[3].kind, "endif");
  // Conditionally-compiled code still tokenizes.
  EXPECT_TRUE(has_identifier(lex, "a"));
  EXPECT_TRUE(has_identifier(lex, "c"));
}

TEST(AnalyzeLexerTest, DigitSeparatorsAreNotCharLiterals) {
  const fa::LexedFile lex =
      fa::lex_string("t.cpp", "long n = 1'000'000; char c = 'x';\n");
  std::size_t numbers = 0, chars = 0;
  for (const fa::Token& tok : lex.tokens) {
    if (tok.kind == fa::TokenKind::kNumber) ++numbers;
    if (tok.kind == fa::TokenKind::kChar) ++chars;
  }
  EXPECT_EQ(numbers, 1u);
  EXPECT_EQ(chars, 1u);
  EXPECT_TRUE(has_identifier(lex, "n"));
}

TEST(AnalyzeLexerTest, WaiverRequiresRuleAndReason) {
  const fa::LexedFile lex = fa::lex_string(
      "t.cpp",
      "int a = time(nullptr);  // FLOTILLA_LINT_ALLOW(wall-clock): ok here\n"
      "int b = time(nullptr);  // FLOTILLA_LINT_ALLOW(wall-clock)\n"
      "int c = time(nullptr);  // FLOTILLA_LINT_ALLOW(*): anything goes\n"
      "int d = time(nullptr);\n");
  EXPECT_TRUE(fa::waived(lex, 1, "wall-clock"));
  EXPECT_FALSE(fa::waived(lex, 2, "wall-clock"));  // reason is mandatory
  EXPECT_TRUE(fa::waived(lex, 3, "wall-clock"));   // '*' waives any rule
  EXPECT_FALSE(fa::waived(lex, 1, "real-sleep"));  // different rule
  EXPECT_FALSE(fa::waived(lex, 4, "wall-clock"));
}

// ---------------------------------------------------------------------------
// Pass detection over the fixture tree
// ---------------------------------------------------------------------------

const char* const kWallClock =
    "error: [wall-clock] wall-clock time in simulation code breaks "
    "determinism; use sim::Engine::now()";
const char* const kRandom =
    "error: [unseeded-random] nondeterministic randomness in simulation "
    "code; draw from a seeded sim::RngStream";

std::string at(const std::string& where, const char* diagnostic) {
  return where + ": " + diagnostic;
}

// One seeded violation per rule and scope edge. The determinism fixtures
// cover each of the five rules, the scoped dragon backend, the ingress
// scope, and the waiver: waived.cpp line 9 carries a waiver with a reason
// and is absent, line 13's waiver has none and is reported.
TEST(AnalyzeToolTest, FixtureScanReportsEverySeededViolation) {
  const RunResult result = run_analyze(fixture_args());
  EXPECT_EQ(result.exit_code, 1);

  const std::string conf = fixtures() + "/layers.conf";
  const std::vector<std::string> expected = {
      at("src/core/bad_random.cpp:8", kRandom),
      at("src/core/bad_random.cpp:14", kRandom),
      at("src/core/bad_random.cpp:15", kRandom),
      "src/core/cycle_a.hpp:4: error: [arch-cycle] include cycle between: "
      "src/core/cycle_a.hpp <-> src/core/cycle_b.hpp",
      "src/core/ipc_deadlock.cpp:16: error: [ipc-self-deadlock] call to "
      "'flush' while holding 'fixture::Journal::buf_mu_' self-deadlocks: "
      "'flush' (via 'append') re-acquires it; release the lock before the "
      "call, or acquire the mutex once at the top level",
      "src/core/ipc_deadlock.cpp:21: error: [ipc-blocking-under-lock] "
      "call to 'block_for_space' may block while holding "
      "'fixture::Journal::buf_mu_': 'block_for_space' reaches 'wait'; "
      "release the lock before calling into blocking code",
      "src/core/lock_order.cpp:12: error: [lock-order] mutex 'flush_mu_' "
      "acquired while holding 'queue_mu_', but the opposite order exists "
      "at src/core/lock_order.cpp:17; pick one global order to avoid ABBA "
      "deadlock",
      "src/core/lock_order.cpp:17: error: [lock-order] mutex 'queue_mu_' "
      "acquired while holding 'flush_mu_', but the opposite order exists "
      "at src/core/lock_order.cpp:12; pick one global order to avoid ABBA "
      "deadlock",
      "src/core/pool.cpp:16: error: [lock-callback] user callback 'done' "
      "invoked while holding 'mu_' in 'finish'; run callbacks outside the "
      "lock (hand them to the caller), or they can re-enter and deadlock",
      "src/core/pool.cpp:22: error: [lock-callback] user callback 'done' "
      "invoked while holding 'mu_' in 'submit'; run callbacks outside the "
      "lock (hand them to the caller), or they can re-enter and deadlock",
      "src/core/pool.cpp:26: error: [lock-virtual] virtual method "
      "'on_drain' called while holding 'mu_' in 'submit'; dynamic dispatch "
      "under a lock can land in user code that re-enters this component",
      "src/core/span_bad.cpp:21: error: [span-balance] early return leaks "
      "span 'kTaskSubmit' begun at line 19 in 'submit' (closed at line "
      "23); close the span before returning",
      at("src/dragon/sim_backend.cpp:9", kWallClock),
      "src/flux/bad_sleep.cpp:8: error: [real-sleep] real sleeping in "
      "simulation code; model delays as simulated events",
      at("src/ingress/arrival_clock.cpp:8", kWallClock),
      "src/orphan/unmapped.hpp:1: error: [arch-unmapped] file is not "
      "covered by any layer prefix in " +
          conf + "; add it to a layer",
      "src/platform/bad_hw_concurrency.cpp:8: error: "
      "[hardware-concurrency] host-dependent concurrency breaks "
      "reproducibility; take worker counts from configuration",
      "src/sched/bad_layering.cpp:3: error: [arch-layering] include of "
      "\"core/pool.hpp\" makes layer 'sched' depend on layer 'core', "
      "which the declared DAG in " +
          conf + " forbids",
      at("src/sim/bad_wall_clock.cpp:8", kWallClock),
      at("src/sim/bad_wall_clock.cpp:13", kWallClock),
      at("src/sim/bad_wall_clock.cpp:15", kWallClock),
      at("src/sim/bad_wall_clock.cpp:20", kWallClock),
      at("src/sim/det_bad.cpp:8", kWallClock),
      "src/sim/ipc_taint.cpp:20: error: [ipc-determinism] trace span "
      "takes a value from 'stamp': 'stamp' (via 'wall_seconds') reads "
      "wall-clock time; trace content must be simulation-deterministic "
      "(derive it from sim time or a seeded RngStream)",
      "src/slurm/bad_unordered.cpp:18: error: [unordered-iteration] "
      "iteration over unordered container 'active_' can feed event "
      "ordering; iterate util::sorted_keys() or use an ordered container",
      "src/slurm/bad_unordered.cpp:22: error: [unordered-iteration] "
      "iteration over unordered container 'drained' can feed event "
      "ordering; iterate util::sorted_keys() or use an ordered container",
      at("src/workloads/waived.cpp:13", kWallClock),
  };
  EXPECT_EQ(result.lines, expected);
}

// The negative fixtures (correct lock handling per the PR1 fix, balanced
// and event-driven spans, comment/string-only determinism mentions, sorted
// iteration over a hash map, a waived call, lock-released-before-the-call
// interprocedural shapes, a deterministic span payload, and host clocks
// outside the simulation scope: the threaded dragon layer and src/util/)
// are part of the tree scanned above; none of them may appear in the
// diagnostics. Scanning them alone must come back clean: naming a file
// does not widen the scope.
TEST(AnalyzeToolTest, NegativeFixturesStayClean) {
  for (const char* rel :
       {"src/core/lock_ok.cpp", "src/core/span_ok.cpp",
        "src/core/ipc_lock_ok.cpp", "src/core/clean_component.cpp",
        "src/dragon/thread_helper.cpp", "src/sim/det_ok.cpp",
        "src/sim/ipc_taint_ok.cpp", "src/util/helpers.hpp",
        "src/util/timestamp.cpp", "src/util/wallclock.hpp"}) {
    const RunResult result = run_analyze(
        "--layers " + fixtures() + "/layers.conf --strip-prefix " +
        fixtures() + "/ " + fixtures() + "/" + rel);
    EXPECT_EQ(result.exit_code, 0) << rel;
    EXPECT_TRUE(result.lines.empty()) << rel << ": " << result.lines[0];
  }
}

// ---------------------------------------------------------------------------
// Determinism rules on named fixture files
// ---------------------------------------------------------------------------

// Arguments that scan only the named files of the fixture tree.
std::string fixture_file_args(const std::vector<std::string>& rels) {
  std::string args = "--layers " + fixtures() + "/layers.conf --strip-prefix " +
                     fixtures() + "/";
  for (const std::string& rel : rels) args += " " + fixtures() + "/" + rel;
  return args;
}

// The determinism fixtures alone, one violation class per file: exactly
// the five rules' diagnostics, and none of the other passes' seeds.
TEST(LintTest, FixtureScanReportsExactDiagnostics) {
  const RunResult result = run_analyze(fixture_file_args(
      {"src/core/bad_random.cpp", "src/core/clean_component.cpp",
       "src/dragon/sim_backend.cpp", "src/dragon/thread_helper.cpp",
       "src/flux/bad_sleep.cpp", "src/platform/bad_hw_concurrency.cpp",
       "src/sim/bad_wall_clock.cpp", "src/slurm/bad_unordered.cpp",
       "src/util/timestamp.cpp", "src/workloads/waived.cpp"}));
  EXPECT_EQ(result.exit_code, 1);

  const std::vector<std::string> expected = {
      at("src/core/bad_random.cpp:8", kRandom),
      at("src/core/bad_random.cpp:14", kRandom),
      at("src/core/bad_random.cpp:15", kRandom),
      at("src/dragon/sim_backend.cpp:9", kWallClock),
      "src/flux/bad_sleep.cpp:8: error: [real-sleep] real sleeping in "
      "simulation code; model delays as simulated events",
      "src/platform/bad_hw_concurrency.cpp:8: error: "
      "[hardware-concurrency] host-dependent concurrency breaks "
      "reproducibility; take worker counts from configuration",
      at("src/sim/bad_wall_clock.cpp:8", kWallClock),
      at("src/sim/bad_wall_clock.cpp:13", kWallClock),
      at("src/sim/bad_wall_clock.cpp:15", kWallClock),
      at("src/sim/bad_wall_clock.cpp:20", kWallClock),
      "src/slurm/bad_unordered.cpp:18: error: [unordered-iteration] "
      "iteration over unordered container 'active_' can feed event "
      "ordering; iterate util::sorted_keys() or use an ordered container",
      "src/slurm/bad_unordered.cpp:22: error: [unordered-iteration] "
      "iteration over unordered container 'drained' can feed event "
      "ordering; iterate util::sorted_keys() or use an ordered container",
      at("src/workloads/waived.cpp:13", kWallClock),
  };
  EXPECT_EQ(result.lines, expected);
}

// A well-formed waiver (rule id + reason) suppresses; one without a reason
// does not: waived.cpp line 9 is absent, line 13 present.
TEST(LintTest, WaiverRequiresReason) {
  const RunResult result =
      run_analyze(fixture_file_args({"src/workloads/waived.cpp"}));
  EXPECT_EQ(result.exit_code, 1);
  const std::vector<std::string> expected = {
      at("src/workloads/waived.cpp:13", kWallClock)};
  EXPECT_EQ(result.lines, expected);
}

// Naming a file neither widens nor narrows the scope: the threaded dragon
// helper and the src/util/ clock stay unchecked next to a scoped dragon
// backend, whose violation is still reported.
TEST(LintTest, ExplicitFileHonoursScope) {
  const RunResult result = run_analyze(fixture_file_args(
      {"src/dragon/thread_helper.cpp", "src/util/timestamp.cpp",
       "src/dragon/sim_backend.cpp"}));
  EXPECT_EQ(result.exit_code, 1);
  const std::vector<std::string> expected = {
      at("src/dragon/sim_backend.cpp:9", kWallClock)};
  EXPECT_EQ(result.lines, expected);
}

// The arrival processes drive simulated offers: a host clock under
// src/ingress/ is a finding.
TEST(LintTest, IngressArrivalClockIsReported) {
  const RunResult result =
      run_analyze(fixture_file_args({"src/ingress/arrival_clock.cpp"}));
  EXPECT_EQ(result.exit_code, 1);
  const std::vector<std::string> expected = {
      at("src/ingress/arrival_clock.cpp:8", kWallClock)};
  EXPECT_EQ(result.lines, expected);
}

// Counter-example file: rand() and steady_clock in comments and string
// literals, and iteration over a sorted snapshot of a hash map, produce no
// diagnostics. The lookalikes must really be there for this to mean
// anything.
TEST(LintTest, CleanFixtureIsClean) {
  const std::string text =
      read_file(fixtures() + "/src/core/clean_component.cpp");
  for (const char* lookalike : {"rand()", "steady_clock", "unordered_map"}) {
    EXPECT_NE(text.find(lookalike), std::string::npos) << lookalike;
  }
  const RunResult result =
      run_analyze(fixture_file_args({"src/core/clean_component.cpp"}));
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.lines.empty());
}

// The real src/ tree is clean without any baseline: no determinism
// finding may be grandfathered.
TEST(LintTest, RepoSourceTreeIsClean) {
  const RunResult result =
      run_command(std::string("cd ") + FLOTILLA_REPO_ROOT + " && " +
                  FLOTILLA_ANALYZE_BIN + " src 2>/dev/null");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.lines.empty());
}

TEST(LintTest, ListRulesNamesEveryRule) {
  const std::vector<std::string> expected = {
      "hardware-concurrency", "real-sleep", "unordered-iteration",
      "unseeded-random", "wall-clock"};
  EXPECT_EQ(fa::DeterminismPass().rules(), expected);
}

TEST(LintTest, ScopeCoversIngressAnalyticsAndDragonRuntime) {
  for (const char* path :
       {"src/ingress/arrival.cpp", "src/ingress/ingress.hpp",
        "src/analytics/timeline.cpp", "src/dragon/runtime.cpp",
        "src/dragon/runtime.hpp", "src/dragon/dragon_backend.cpp",
        "/checkout/src/sim/engine.cpp"}) {
    EXPECT_TRUE(fa::determinism_in_scope(path)) << path;
  }
}

// The real-threaded execution layers may use host clocks and threads.
TEST(LintTest, ScopeLeavesThreadedLayersOut) {
  for (const char* path :
       {"src/dragon/function_executor.cpp", "src/dragon/shmem_channel.hpp",
        "src/dragon/mpmc_queue.hpp", "src/dragon/pipeline.hpp",
        "src/local/process_pool.cpp", "src/util/config.cpp",
        "tools/flotilla_run.cpp"}) {
    EXPECT_FALSE(fa::determinism_in_scope(path)) << path;
  }
}

// ---------------------------------------------------------------------------
// SARIF output
// ---------------------------------------------------------------------------

TEST(AnalyzeToolTest, SarifIsValidJsonWithOneResultPerFinding) {
  const std::string out = testing::TempDir() + "analyze_test.sarif";
  const RunResult result =
      run_analyze(fixture_args() + " --sarif --output " + out);
  EXPECT_EQ(result.exit_code, 1);  // findings still fail the run

  const std::string sarif = read_file(out);
  JsonChecker checker(sarif);
  EXPECT_TRUE(checker.valid()) << "SARIF is not well-formed JSON";

  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("sarif-2.1.0.json"), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"flotilla-analyze\""), std::string::npos);
  EXPECT_EQ(count_occurrences(sarif, "\"ruleId\""), 27u);
  // Spot-check one physical location end to end.
  EXPECT_NE(sarif.find("\"ruleId\": \"span-balance\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/core/span_bad.cpp\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 21"), std::string::npos);
  // Every pass's rules are declared as tool.driver.rules.
  for (const char* rule :
       {"arch-config", "arch-cycle", "arch-layering", "arch-unmapped",
        "ipc-blocking-under-lock", "ipc-determinism", "ipc-self-deadlock",
        "lock-callback", "lock-order", "lock-virtual", "span-balance",
        "wall-clock", "unordered-iteration"}) {
    EXPECT_NE(sarif.find(std::string("\"id\": \"") + rule + "\""),
              std::string::npos)
        << rule;
  }
  // Nothing is suppressed without a baseline.
  EXPECT_EQ(count_occurrences(sarif, "\"suppressions\""), 0u);
}

TEST(AnalyzeToolTest, SarifRuleMetadataCarriesDocsAnchorsAndSeverity) {
  const std::string out = testing::TempDir() + "analyze_meta.sarif";
  run_analyze(fixture_args() + " --sarif --output " + out);
  const std::string sarif = read_file(out);
  // All 16 declared rules carry a fullDescription and a helpUri anchored
  // into docs/correctness.md; the three ipc rules point at the
  // interprocedural section.
  EXPECT_EQ(count_occurrences(sarif, "\"fullDescription\""), 16u);
  EXPECT_EQ(count_occurrences(sarif, "\"helpUri\": \"docs/correctness.md#"),
            16u);
  EXPECT_EQ(count_occurrences(
                sarif,
                "\"helpUri\": "
                "\"docs/correctness.md#interprocedural-analysis\""),
            3u);
  EXPECT_EQ(count_occurrences(sarif, "\"defaultConfiguration\""), 16u);
  // Every rule and result is level "error".
  EXPECT_EQ(count_occurrences(sarif, "\"level\": \"note\""), 0u);
  EXPECT_EQ(count_occurrences(sarif, "\"level\": \"warning\""), 0u);
}

TEST(AnalyzeToolTest, SarifIsByteIdenticalAcrossRuns) {
  const std::string a = testing::TempDir() + "analyze_a.sarif";
  const std::string b = testing::TempDir() + "analyze_b.sarif";
  run_analyze(fixture_args() + " --sarif --output " + a);
  run_analyze(fixture_args() + " --sarif --output " + b);
  EXPECT_EQ(read_file(a), read_file(b));
}

// ---------------------------------------------------------------------------
// Baseline suppression round trip
// ---------------------------------------------------------------------------

TEST(AnalyzeToolTest, BaselineRoundTripSuppressesGrandfatheredFindings) {
  const std::string baseline = testing::TempDir() + "analyze_baseline.txt";

  // Write: every current finding becomes part of the baseline.
  const RunResult write = run_analyze(
      fixture_args() + " --baseline " + baseline + " --write-baseline");
  EXPECT_EQ(write.exit_code, 0);

  // Re-run against it: same tree, zero fresh findings, exit 0.
  const RunResult clean =
      run_analyze(fixture_args() + " --baseline " + baseline);
  EXPECT_EQ(clean.exit_code, 0);
  EXPECT_TRUE(clean.lines.empty());

  // SARIF still reports all results, but marks them suppressed.
  const std::string out = testing::TempDir() + "analyze_suppressed.sarif";
  const RunResult sarif_run = run_analyze(fixture_args() + " --baseline " +
                                          baseline + " --sarif --output " +
                                          out);
  EXPECT_EQ(sarif_run.exit_code, 0);
  const std::string sarif = read_file(out);
  JsonChecker checker(sarif);
  EXPECT_TRUE(checker.valid());
  EXPECT_EQ(count_occurrences(sarif, "\"ruleId\""), 27u);
  EXPECT_EQ(count_occurrences(sarif, "\"suppressions\""), 27u);

  // Dropping one entry makes exactly that finding fresh again.
  std::string text = read_file(baseline);
  const std::string victim = "span-balance|src/core/span_bad.cpp";
  const std::size_t at = text.find(victim);
  ASSERT_NE(at, std::string::npos);
  const std::size_t eol = text.find('\n', at);
  text.erase(at, eol - at + 1);
  {
    std::ofstream rewrite(baseline, std::ios::binary | std::ios::trunc);
    rewrite << text;
  }
  const RunResult fresh =
      run_analyze(fixture_args() + " --baseline " + baseline);
  EXPECT_EQ(fresh.exit_code, 1);
  ASSERT_EQ(fresh.lines.size(), 1u);
  EXPECT_NE(fresh.lines[0].find("span-balance"), std::string::npos);
  EXPECT_NE(fresh.lines[0].find("src/core/span_bad.cpp:21"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Real tree: the CI gate
// ---------------------------------------------------------------------------

// Same invocation scripts/run_analyze.sh uses: the committed layers.conf
// and baseline must hold over the real src/ + tools/ tree.
TEST(AnalyzeToolTest, RepoTreeIsCleanAgainstCommittedBaseline) {
  const RunResult result = run_command(
      std::string("cd ") + FLOTILLA_REPO_ROOT + " && " +
      FLOTILLA_ANALYZE_BIN + " --baseline analyze/baseline.txt 2>/dev/null");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.lines.empty());
}

TEST(AnalyzeToolTest, ListRulesNamesEveryPassRule) {
  const RunResult result = run_analyze("--list-rules");
  EXPECT_EQ(result.exit_code, 0);
  const std::vector<std::string> expected = {
      "arch-config",          "arch-cycle",
      "arch-layering",        "arch-unmapped",
      "hardware-concurrency", "ipc-blocking-under-lock",
      "ipc-determinism",      "ipc-self-deadlock",
      "lock-callback",        "lock-order",
      "lock-virtual",         "real-sleep",
      "span-balance",         "unordered-iteration",
      "unseeded-random",      "wall-clock"};
  EXPECT_EQ(result.lines, expected);
}

// The shared-state inventory and the confinement proofs went with the
// sharded engine; their flags are unknown options now, not silent no-ops.
TEST(AnalyzeToolTest, RetiredReportFlagsAreUsageErrors) {
  const std::string out = testing::TempDir() + "analyze_retired.txt";
  for (const char* flag :
       {"--shared-state-report", "--confined", "--confinement-report"}) {
    EXPECT_EQ(run_analyze(std::string(flag) + " " + out).exit_code, 2)
        << flag;
  }
}

// ---------------------------------------------------------------------------
// Call-graph resolution (library-level, in-test sources)
// ---------------------------------------------------------------------------

fa::SourceFile make_source(const std::string& name, const std::string& text) {
  fa::SourceFile file;
  file.display = name;
  file.lex = fa::lex_string(name, text);
  file.bodies = fa::build_bodies(file.lex);
  file.facts = fa::collect_facts(file.lex, file.bodies, nullptr);
  return file;
}

int find_fn(const fa::ProgramModel& model, const std::string& qualified) {
  for (const fa::FunctionNode& node : model.functions) {
    if (node.def.qualified == qualified) return node.id;
  }
  return -1;
}

TEST(AnalyzeCallGraphTest, ResolvesOverloadsNamespacesAndVirtualDispatch) {
  fa::AnalysisInput input;
  input.files.push_back(make_source(
      "a.cpp",
      "namespace app {\n"
      "int scale(int v) { return v * 2; }\n"
      "double scale(double v) { return v * 2.0; }\n"
      "int use_scale() { return scale(3); }\n"
      "}  // namespace app\n"));
  input.files.push_back(make_source(
      "b.cpp",
      "namespace app {\n"
      "class Codec {\n"
      " public:\n"
      "  virtual void pack() {}\n"
      "};\n"
      "class FastCodec : public Codec {\n"
      " public:\n"
      "  void pack() override { encode(); }\n"
      "  void encode() {}\n"
      "};\n"
      "void drive(Codec& c) { c.pack(); }\n"
      "}  // namespace app\n"));
  input.files.push_back(make_source(
      "c.cpp",
      "namespace web {\n"
      "int scale(int v) { return v; }\n"
      "}  // namespace web\n"
      "int outside() { return app::scale(7); }\n"));
  const fa::ProgramModel model = fa::build_program(input);

  // Three definitions share the bare name; overload resolution is
  // name-level, so an unqualified call inside app targets both app
  // overloads and nothing else.
  const std::vector<int>* scales = model.by_name("scale");
  ASSERT_NE(scales, nullptr);
  EXPECT_EQ(scales->size(), 3u);
  const int user = find_fn(model, "app::use_scale");
  ASSERT_GE(user, 0);
  ASSERT_EQ(model.callees[user].size(), 2u);
  for (const int callee : model.callees[user]) {
    EXPECT_EQ(model.functions[callee].def.qualified, "app::scale");
  }

  // An explicitly qualified call from outside matches component-wise:
  // app::scale hits both app overloads, never web::scale.
  const int outside = find_fn(model, "outside");
  ASSERT_GE(outside, 0);
  ASSERT_EQ(model.callees[outside].size(), 2u);
  for (const int callee : model.callees[outside]) {
    EXPECT_EQ(model.functions[callee].def.qualified, "app::scale");
  }

  // Virtual dispatch through the base: every override is a target.
  const int drive = find_fn(model, "app::drive");
  ASSERT_GE(drive, 0);
  std::vector<std::string> packs;
  for (const int callee : model.callees[drive]) {
    packs.push_back(model.functions[callee].def.qualified);
  }
  std::sort(packs.begin(), packs.end());
  const std::vector<std::string> expected = {"app::Codec::pack",
                                             "app::FastCodec::pack"};
  EXPECT_EQ(packs, expected);
}

TEST(AnalyzeCallGraphTest, SummariesPropagateMutexesBottomUp) {
  fa::AnalysisInput input;
  input.files.push_back(make_source(
      "store.cpp",
      "namespace app {\n"
      "class Store {\n"
      " public:\n"
      "  void deep() { mid(); }\n"
      " private:\n"
      "  void mid() { leaf(); }\n"
      "  void leaf() { std::lock_guard<std::mutex> lock(mu_); }\n"
      "  std::mutex mu_;\n"
      "};\n"
      "}  // namespace app\n"));
  const fa::ProgramModel model = fa::build_program(input);

  const int deep = find_fn(model, "app::Store::deep");
  const int leaf = find_fn(model, "app::Store::leaf");
  ASSERT_GE(deep, 0);
  ASSERT_GE(leaf, 0);

  // leaf acquires the mutex directly (no via); deep inherits it through
  // the two-hop chain, and the trail renders the path.
  const auto direct = model.summaries[leaf].mutexes.find("app::Store::mu_");
  ASSERT_NE(direct, model.summaries[leaf].mutexes.end());
  EXPECT_LT(direct->second.via, 0);
  const auto inherited =
      model.summaries[deep].mutexes.find("app::Store::mu_");
  ASSERT_NE(inherited, model.summaries[deep].mutexes.end());
  EXPECT_GE(inherited->second.via, 0);
  EXPECT_EQ(model.trail(deep, &fa::FunctionSummary::mutexes,
                        "app::Store::mu_"),
            " (via 'mid' -> 'leaf')");
}

// ---------------------------------------------------------------------------
// --jobs byte-identity
// ---------------------------------------------------------------------------

TEST(AnalyzeToolTest, JobCountNeverChangesOutput) {
  const std::string a = testing::TempDir() + "analyze_jobs1.sarif";
  const std::string b = testing::TempDir() + "analyze_jobs8.sarif";
  const RunResult one =
      run_analyze(fixture_args() + " --jobs 1 --sarif --output " + a);
  const RunResult eight =
      run_analyze(fixture_args() + " --jobs 8 --sarif --output " + b);
  EXPECT_EQ(one.exit_code, eight.exit_code);
  EXPECT_EQ(read_file(a), read_file(b));
  const RunResult text_one = run_analyze(fixture_args() + " --jobs 1");
  const RunResult text_eight = run_analyze(fixture_args() + " --jobs 8");
  EXPECT_EQ(text_one.lines, text_eight.lines);
}

}  // namespace
