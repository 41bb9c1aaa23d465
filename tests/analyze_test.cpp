// Tests for the flotilla-analyze framework (src/analyze/) and binary
// (tools/flotilla_analyze.cpp): lexer edge cases against the library
// directly, pass detection against the seeded-violation fixture tree
// under tests/analyze_fixtures/ (one positive and one negative fixture
// per pass), the determinism rules and their scope on named fixture
// files, SARIF output parsed and sanity-checked in-test, and the real
// tree's clean run.
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

// Arguments that scan the fixture tree the way CI scans the repo: its
// src/ and tools/ roots.
std::string fixture_args() {
  return "--layers " + fixtures() + "/layers.conf --strip-prefix " +
         fixtures() + "/ " + fixtures() + "/src " + fixtures() + "/tools";
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
// cover each of the five rules, the dragon, ingress and util scopes, and
// the waiver: waived.cpp line 9 carries a waiver with a reason and is
// absent, line 13's waiver has none and is reported.
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
      "src/core/span_bad.cpp:21: error: [span-balance] early return leaks "
      "span 'kTaskSubmit' begun at line 19 in 'submit' (closed at line "
      "23); close the span before returning",
      at("src/dragon/dispatch_clock.cpp:10", kWallClock),
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
      "\"core/cycle_a.hpp\" makes layer 'sched' depend on layer 'core', "
      "which the declared DAG in " +
          conf + " forbids",
      at("src/sim/bad_wall_clock.cpp:8", kWallClock),
      at("src/sim/bad_wall_clock.cpp:13", kWallClock),
      at("src/sim/bad_wall_clock.cpp:15", kWallClock),
      at("src/sim/bad_wall_clock.cpp:20", kWallClock),
      at("src/sim/det_bad.cpp:8", kWallClock),
      "src/slurm/bad_unordered.cpp:18: error: [unordered-iteration] "
      "iteration over unordered container 'active_' can feed event "
      "ordering; iterate util::sorted_keys() or use an ordered container",
      "src/slurm/bad_unordered.cpp:22: error: [unordered-iteration] "
      "iteration over unordered container 'drained' can feed event "
      "ordering; iterate util::sorted_keys() or use an ordered container",
      at("src/util/timestamp.cpp:7", kWallClock),
      at("src/util/wallclock.hpp:13", kWallClock),
      at("src/workloads/waived.cpp:13", kWallClock),
  };
  EXPECT_EQ(result.lines, expected);
}

// The negative fixtures (balanced and event-driven spans,
// comment/string-only determinism mentions, sorted iteration over a hash
// map, a waived call, and a host clock outside the simulation scope, in
// tools/) are part of the tree scanned above; none of them may appear in
// the diagnostics. Scanning them alone must come back clean: naming a
// file does not widen the scope.
TEST(AnalyzeToolTest, NegativeFixturesStayClean) {
  for (const char* rel :
       {"src/core/span_ok.cpp", "src/core/clean_component.cpp",
        "src/sim/det_ok.cpp", "src/util/helpers.hpp",
        "tools/host_stamp.cpp"}) {
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
  for (const std::string& rel : rels) {
    args.append(" ").append(fixtures()).append("/").append(rel);
  }
  return args;
}

// The determinism fixtures alone, one violation class per file: exactly
// the five rules' diagnostics, and none of the other passes' seeds.
TEST(LintTest, FixtureScanReportsExactDiagnostics) {
  const RunResult result = run_analyze(fixture_file_args(
      {"src/core/bad_random.cpp", "src/core/clean_component.cpp",
       "src/dragon/dispatch_clock.cpp", "src/dragon/sim_backend.cpp",
       "src/flux/bad_sleep.cpp", "src/platform/bad_hw_concurrency.cpp",
       "src/sim/bad_wall_clock.cpp", "src/slurm/bad_unordered.cpp",
       "src/util/timestamp.cpp", "src/workloads/waived.cpp",
       "tools/host_stamp.cpp"}));
  EXPECT_EQ(result.exit_code, 1);

  const std::vector<std::string> expected = {
      at("src/core/bad_random.cpp:8", kRandom),
      at("src/core/bad_random.cpp:14", kRandom),
      at("src/core/bad_random.cpp:15", kRandom),
      at("src/dragon/dispatch_clock.cpp:10", kWallClock),
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
      at("src/util/timestamp.cpp:7", kWallClock),
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

// Naming a file neither widens nor narrows the scope: the tools/ clock
// stays unchecked next to two scoped dragon files, whose violations are
// still reported.
TEST(LintTest, ExplicitFileHonoursScope) {
  const RunResult result = run_analyze(fixture_file_args(
      {"src/dragon/dispatch_clock.cpp", "tools/host_stamp.cpp",
       "src/dragon/sim_backend.cpp"}));
  EXPECT_EQ(result.exit_code, 1);
  const std::vector<std::string> expected = {
      at("src/dragon/dispatch_clock.cpp:10", kWallClock),
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

// Same invocation scripts/run_analyze.sh uses: the committed layers.conf
// must hold over the default roots (src/ and tools/), with no finding.
TEST(LintTest, RepoSourceTreeIsClean) {
  const RunResult result =
      run_command(std::string("cd ") + FLOTILLA_REPO_ROOT + " && " +
                  FLOTILLA_ANALYZE_BIN + " 2>/dev/null");
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

// The scope is a path prefix on whole components: src/ at the start or
// /src/ anywhere, never a directory that merely begins with "src".
TEST(LintTest, ScopeIsAWholeSrcComponent) {
  for (const char* path :
       {"src/analyze/driver.cpp", "src/util/slot_table.hpp",
        "/checkout/src/util/config.cpp"}) {
    EXPECT_TRUE(fa::determinism_in_scope(path)) << path;
  }
  for (const char* path : {"srcx/engine.cpp", "mysrc/engine.cpp",
                           "tools/src.cpp", "tests/util_test.cpp"}) {
    EXPECT_FALSE(fa::determinism_in_scope(path)) << path;
  }
}

// A host clock in src/util/ is reported where it is read: the header
// helper and the .cpp caller each on their own line, with no caller in
// simulation code named.
TEST(LintTest, UtilHostClockIsReportedAtItsSource) {
  const RunResult result = run_analyze(fixture_file_args(
      {"src/util/wallclock.hpp", "src/util/timestamp.cpp"}));
  EXPECT_EQ(result.exit_code, 1);
  const std::vector<std::string> expected = {
      at("src/util/timestamp.cpp:7", kWallClock),
      at("src/util/wallclock.hpp:13", kWallClock)};
  EXPECT_EQ(result.lines, expected);
}

// The scope is all of src/, host utilities included; the command-line
// tools may use host clocks.
TEST(LintTest, ScopeCoversUtilButNotTools) {
  EXPECT_TRUE(fa::determinism_in_scope("src/util/config.cpp"));
  EXPECT_FALSE(fa::determinism_in_scope("tools/flotilla_run.cpp"));
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
  EXPECT_EQ(count_occurrences(sarif, "\"ruleId\""), 22u);
  // Spot-check one physical location end to end.
  EXPECT_NE(sarif.find("\"ruleId\": \"span-balance\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/core/span_bad.cpp\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 21"), std::string::npos);
  // Every pass's rules are declared as tool.driver.rules.
  for (const char* rule :
       {"arch-config", "arch-cycle", "arch-layering", "arch-unmapped",
        "span-balance", "wall-clock", "unordered-iteration"}) {
    EXPECT_NE(sarif.find(std::string("\"id\": \"") + rule + "\""),
              std::string::npos)
        << rule;
  }
}

TEST(AnalyzeToolTest, SarifRuleMetadataCarriesDocsAnchorsAndSeverity) {
  const std::string out = testing::TempDir() + "analyze_meta.sarif";
  run_analyze(fixture_args() + " --sarif --output " + out);
  const std::string sarif = read_file(out);
  // All 10 declared rules carry a fullDescription and a helpUri anchored
  // into docs/correctness.md; the five determinism rules point at their
  // section.
  EXPECT_EQ(count_occurrences(sarif, "\"fullDescription\""), 10u);
  EXPECT_EQ(count_occurrences(sarif, "\"helpUri\": \"docs/correctness.md#"),
            10u);
  EXPECT_EQ(count_occurrences(
                sarif,
                "\"helpUri\": \"docs/correctness.md#determinism-rules\""),
            5u);
  EXPECT_EQ(count_occurrences(sarif, "\"defaultConfiguration\""), 10u);
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

// Files are loaded and reported in path order: naming the roots the
// other way round changes nothing in the text or the SARIF output.
TEST(AnalyzeToolTest, RootOrderNeverChangesOutput) {
  const std::string common =
      "--layers " + fixtures() + "/layers.conf --strip-prefix " + fixtures() +
      "/ ";
  const std::string forward = fixtures() + "/src " + fixtures() + "/tools";
  const std::string reverse = fixtures() + "/tools " + fixtures() + "/src";
  const RunResult a = run_analyze(common + forward);
  const RunResult b = run_analyze(common + reverse);
  EXPECT_EQ(a.exit_code, 1);
  EXPECT_EQ(b.exit_code, 1);
  EXPECT_FALSE(a.lines.empty());
  EXPECT_EQ(a.lines, b.lines);

  const std::string sa = testing::TempDir() + "analyze_forward.sarif";
  const std::string sb = testing::TempDir() + "analyze_reverse.sarif";
  run_analyze(common + forward + " --sarif --output " + sa);
  run_analyze(common + reverse + " --sarif --output " + sb);
  EXPECT_EQ(read_file(sa), read_file(sb));
}

// With no baseline there is nothing to suppress, and the interprocedural
// rule is no longer declared: every finding is a plain result.
TEST(AnalyzeToolTest, SarifCarriesNoSuppressionsOrRetiredRule) {
  const std::string out = testing::TempDir() + "analyze_plain.sarif";
  EXPECT_EQ(run_analyze(fixture_args() + " --sarif --output " + out)
                .exit_code,
            1);
  const std::string sarif = read_file(out);
  EXPECT_EQ(sarif.find("\"suppressions\""), std::string::npos);
  EXPECT_EQ(sarif.find("ipc-determinism"), std::string::npos);
  EXPECT_EQ(count_occurrences(sarif, "\"ruleId\": \"wall-clock\""), 11u);
}

TEST(AnalyzeToolTest, ListRulesNamesEveryPassRule) {
  const RunResult result = run_analyze("--list-rules");
  EXPECT_EQ(result.exit_code, 0);
  const std::vector<std::string> expected = {
      "arch-config",          "arch-cycle",
      "arch-layering",        "arch-unmapped",
      "hardware-concurrency", "real-sleep",
      "span-balance",         "unordered-iteration",
      "unseeded-random",      "wall-clock"};
  EXPECT_EQ(result.lines, expected);
}

// The shared-state inventory, the confinement proofs, the file-loading
// pool and the baseline are gone; their flags are unknown options now,
// not silent no-ops, and the usage text names none of them.
TEST(AnalyzeToolTest, RetiredReportFlagsAreUsageErrors) {
  const std::string out = testing::TempDir() + "analyze_retired.txt";
  for (const std::string& args :
       {"--shared-state-report " + out, "--confined " + out,
        "--confinement-report " + out, std::string("--jobs 4"),
        "--baseline " + out, std::string("--write-baseline")}) {
    EXPECT_EQ(run_analyze(args).exit_code, 2) << args;
  }
  const RunResult help = run_analyze("--help");
  EXPECT_EQ(help.exit_code, 0);
  for (const std::string& line : help.lines) {
    for (const char* flag : {"--jobs", "--baseline", "--write-baseline"}) {
      EXPECT_EQ(line.find(flag), std::string::npos) << line;
    }
  }
}

}  // namespace
