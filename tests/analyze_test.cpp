// Tests for the flotilla-analyze framework (src/analyze/) and binary
// (tools/flotilla_analyze.cpp): lexer edge cases against the library
// directly, call-graph resolution against in-test sources, pass
// detection against the seeded-violation fixture tree under
// tests/analyze_fixtures/ (one positive and one negative fixture per
// pass, including the PR1 ProcessPool callback-under-lock regression
// shape and the interprocedural deadlock/taint/shared-state seeds),
// SARIF output parsed and sanity-checked in-test, the --jobs
// byte-identity guarantee, the shared-state report, and the baseline
// suppression round trip.
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

TEST(AnalyzeToolTest, FixtureScanReportsEverySeededViolation) {
  const RunResult result = run_analyze(fixture_args());
  EXPECT_EQ(result.exit_code, 1);

  const std::string conf = fixtures() + "/layers.conf";
  const std::vector<std::string> expected = {
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
      "src/orphan/unmapped.hpp:1: error: [arch-unmapped] file is not "
      "covered by any layer prefix in " +
          conf + "; add it to a layer",
      "src/sched/bad_layering.cpp:3: error: [arch-layering] include of "
      "\"core/pool.hpp\" makes layer 'sched' depend on layer 'core', "
      "which the declared DAG in " +
          conf + " forbids",
      "src/sim/det_bad.cpp:8: error: [wall-clock] wall-clock time in "
      "simulation code breaks determinism; use sim::Engine::now()",
      "src/sim/ipc_taint.cpp:20: error: [ipc-determinism] trace span "
      "takes a value from 'stamp': 'stamp' (via 'wall_seconds') reads "
      "wall-clock time; trace content must be simulation-deterministic "
      "(derive it from sim time or a seeded RngStream)",
  };
  EXPECT_EQ(result.lines, expected);
}

// The negative fixtures (correct lock handling per the PR1 fix, balanced
// and event-driven spans, comment/string-only determinism mentions, a
// waived call, lock-released-before-the-call interprocedural shapes, a
// deterministic span payload, and the shared-state root whose notes
// never gate) are part of the tree scanned above; none of them may
// appear in the diagnostics. Scanning them alone must come back clean.
TEST(AnalyzeToolTest, NegativeFixturesStayClean) {
  for (const char* rel :
       {"src/core/lock_ok.cpp", "src/core/span_ok.cpp",
        "src/core/ipc_lock_ok.cpp", "src/sim/det_ok.cpp",
        "src/sim/ipc_taint_ok.cpp", "src/sim/engine_loop.cpp",
        "src/util/helpers.hpp", "src/util/wallclock.hpp"}) {
    const RunResult result = run_analyze(
        "--layers " + fixtures() + "/layers.conf --strip-prefix " +
        fixtures() + "/ " + fixtures() + "/" + rel);
    EXPECT_EQ(result.exit_code, 0) << rel;
    EXPECT_TRUE(result.lines.empty()) << rel << ": " << result.lines[0];
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
  // 13 error findings plus the two shared-state notes from engine_loop.cpp.
  EXPECT_EQ(count_occurrences(sarif, "\"ruleId\""), 15u);
  // Spot-check one physical location end to end.
  EXPECT_NE(sarif.find("\"ruleId\": \"span-balance\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/core/span_bad.cpp\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 21"), std::string::npos);
  // Every pass's rules are declared as tool.driver.rules.
  for (const char* rule :
       {"arch-config", "arch-cycle", "arch-layering", "arch-unmapped",
        "conf-stale-claim", "conf-unproven", "ipc-blocking-under-lock", "ipc-determinism", "ipc-self-deadlock",
        "lock-callback", "lock-order", "lock-virtual", "shared-state",
        "span-balance", "wall-clock", "unordered-iteration"}) {
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
  // All 19 declared rules carry a fullDescription and a helpUri anchored
  // into docs/correctness.md; the three ipc rules and shared-state point
  // at the interprocedural section, the two conf rules at the
  // confinement-proofs section.
  EXPECT_EQ(count_occurrences(sarif, "\"fullDescription\""), 19u);
  EXPECT_EQ(count_occurrences(sarif, "\"helpUri\": \"docs/correctness.md#"),
            19u);
  EXPECT_EQ(count_occurrences(
                sarif,
                "\"helpUri\": "
                "\"docs/correctness.md#interprocedural-analysis\""),
            4u);
  EXPECT_EQ(count_occurrences(
                sarif,
                "\"helpUri\": \"docs/correctness.md#confinement-proofs\""),
            2u);
  EXPECT_EQ(count_occurrences(sarif, "\"defaultConfiguration\""), 19u);
  // shared-state is the only note-severity rule: its defaultConfiguration
  // plus its two fixture results are the only "note" levels in the
  // document; every other rule and result is level "error".
  EXPECT_EQ(count_occurrences(sarif, "\"level\": \"note\""), 3u);
  EXPECT_EQ(count_occurrences(sarif, "\"level\": \"warning\""), 0u);
  EXPECT_NE(sarif.find("\"ruleId\": \"shared-state\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/sim/engine_loop.cpp\""),
            std::string::npos);
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
  // All 15 results (13 errors + 2 notes) are reported, but only the 13
  // error findings live in the baseline and get suppressed: notes never
  // enter the baseline.
  EXPECT_EQ(count_occurrences(sarif, "\"ruleId\""), 15u);
  EXPECT_EQ(count_occurrences(sarif, "\"suppressions\""), 13u);

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
      "conf-stale-claim",     "conf-unproven",
      "hardware-concurrency", "ipc-blocking-under-lock",
      "ipc-determinism",      "ipc-self-deadlock",
      "lock-callback",        "lock-order",
      "lock-virtual",         "real-sleep",
      "shared-state",         "span-balance",
      "unordered-iteration",  "unseeded-random",
      "wall-clock"};
  EXPECT_EQ(result.lines, expected);
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
// --jobs byte-identity and the shared-state report
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

TEST(AnalyzeToolTest, SharedStateReportInventoriesUnguardedWrites) {
  const std::string report = testing::TempDir() + "analyze_ssr.txt";
  const RunResult result =
      run_analyze(fixture_args() + " --shared-state-report " + report);
  EXPECT_EQ(result.exit_code, 1);  // the seeded error findings, not notes
  const std::string text = read_file(report);
  const std::string expected =
      "# flotilla-analyze shared-state report: unguarded writes reachable "
      "from sim::Engine::run\n"
      "# total 2 entries: 0 confined-by-annotation, 2 unannotated\n"
      "# kind\ttarget\tfirst-site\tsites\tfunction\tconfinement\n"
      "member\ttotal_\tsrc/sim/engine_loop.cpp:12\t1\tsim::Tally::"
      "accumulate\t-\n"
      "member\tticks_\tsrc/sim/engine_loop.cpp:27\t1\tsim::Engine::step"
      "\t-\n";
  EXPECT_EQ(text, expected);
  // guarded_ is written under mu_ and OfflineReport::bump is unreachable
  // from the root: neither may be inventoried.
  EXPECT_EQ(text.find("guarded_"), std::string::npos);
  EXPECT_EQ(text.find("lines_"), std::string::npos);
}

TEST(AnalyzeToolTest, ConfinedAnnotationsMarkInventoryEntries) {
  // An exact-target annotation plus a component-wildcard one: total_ is
  // annotated by name, ticks_ via Engine::* covering every member write
  // in sim::Engine. The entries stay in the report (the inventory never
  // shrinks silently) but carry the reason instead of '-'.
  const std::string confined = testing::TempDir() + "analyze_confined.txt";
  {
    std::ofstream out(confined);
    out << "# reviewed claims\n"
        << "total_ Tally::accumulate assume owner-confined: one tally "
           "per owner\n"
        << "* Engine::* assume owner-confined: during rounds\n";
  }
  const std::string report = testing::TempDir() + "analyze_ssr_conf.txt";
  const RunResult result =
      run_analyze(fixture_args() + " --shared-state-report " + report +
                  " --confined " + confined);
  EXPECT_EQ(result.exit_code, 1);
  const std::string text = read_file(report);
  EXPECT_NE(text.find("# total 2 entries: 2 confined-by-annotation, "
                      "0 unannotated\n"),
            std::string::npos);
  EXPECT_NE(text.find("\tsim::Tally::accumulate\towner-confined: one "
                      "tally per owner\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("\tsim::Engine::step\towner-confined: during rounds\n"),
      std::string::npos);

  // Malformed annotation lines are a usage error, not silently ignored —
  // with or without a report destination.
  const std::string broken = testing::TempDir() + "analyze_broken.txt";
  {
    std::ofstream out(broken);
    out << "ticks_\n";
  }
  const RunResult bad =
      run_analyze(fixture_args() + " --shared-state-report " + report +
                  " --confined " + broken);
  EXPECT_EQ(bad.exit_code, 2);
  const RunResult bad_alone =
      run_analyze(fixture_args() + " --confined " + broken);
  EXPECT_EQ(bad_alone.exit_code, 2);

  // A bad status column or an unknown claim kind are parse errors too.
  {
    std::ofstream out(broken);
    out << "ticks_ Engine::step maybe owner-confined: who knows\n";
  }
  EXPECT_EQ(run_analyze(fixture_args() + " --confined " + broken).exit_code,
            2);
  {
    std::ofstream out(broken);
    out << "ticks_ Engine::step verified gc-confined: not a kind\n";
  }
  EXPECT_EQ(run_analyze(fixture_args() + " --confined " + broken).exit_code,
            2);
}

// ---------------------------------------------------------------------------
// Confinement proofs (tests/analyze_fixtures/conf/)
// ---------------------------------------------------------------------------

std::string conf_fixtures() { return fixtures() + "/conf"; }

std::string conf_args() {
  return "--layers " + conf_fixtures() + "/layers.conf --strip-prefix " +
         conf_fixtures() + "/ " + conf_fixtures() + "/src";
}

TEST(AnalyzeConfinementTest, CleanClaimsAllProve) {
  const std::string report = testing::TempDir() + "analyze_conf_clean.txt";
  const RunResult result = run_analyze(
      conf_args() + " --confined " + conf_fixtures() +
      "/confined_clean.txt --confinement-report " + report);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.lines.empty());
  const std::string text = read_file(report);
  EXPECT_NE(text.find("# total 2 claims: 1 proved, 1 assumed, 0 failed\n"),
            std::string::npos);
  // The owner-confined proof counts its writers.
  EXPECT_NE(text.find("proved\tverified\towner-confined\t*\t"
                      "sim::Engine::*\t2\t"),
            std::string::npos);
}

TEST(AnalyzeConfinementTest, SeededClaimsFailEveryRule) {
  const RunResult result = run_analyze(conf_args() + " --confined " +
                                       conf_fixtures() +
                                       "/confined_seeded.txt");
  EXPECT_EQ(result.exit_code, 1);
  std::string all;
  for (const std::string& line : result.lines) all += line + "\n";
  // Reporter: claimed pinned but reachable from the storm roots, with the
  // reach chain in the message.
  EXPECT_NE(all.find("src/sim/report.cpp:5: error: [conf-unproven]"),
            std::string::npos);
  EXPECT_NE(all.find("'run_storm' -> 'flush'"), std::string::npos);
  // Ghost: the stale claim is anchored at its line in the claims file.
  EXPECT_NE(all.find("confined_seeded.txt:6: error: [conf-stale-claim]"),
            std::string::npos);
}

TEST(AnalyzeConfinementTest, JobCountNeverChangesConfinementOutput) {
  const std::string a = testing::TempDir() + "analyze_conf_jobs1.sarif";
  const std::string b = testing::TempDir() + "analyze_conf_jobs8.sarif";
  const std::string args =
      conf_args() + " --confined " + conf_fixtures() + "/confined_seeded.txt";
  const RunResult one = run_analyze(args + " --jobs 1 --sarif --output " + a);
  const RunResult eight =
      run_analyze(args + " --jobs 8 --sarif --output " + b);
  EXPECT_EQ(one.exit_code, eight.exit_code);
  EXPECT_EQ(read_file(a), read_file(b));
}

// The shard-confined kind was retired with the sharded session stack; a
// claims file that still uses it is a usage error, not a silent skip.
TEST(AnalyzeConfinementTest, RetiredShardConfinedKindIsAParseError) {
  const std::string claims =
      testing::TempDir() + "analyze_conf_retired.txt";
  {
    std::ofstream out(claims);
    out << "* sim::Engine::* verified shard-confined: home shard\n";
  }
  EXPECT_EQ(run_analyze(conf_args() + " --confined " + claims).exit_code, 2);
}

// Every backend claim proves as threads-pinned (unreachable from the storm
// roots) against the real tree.
TEST(AnalyzeConfinementTest, RepoBackendClaimsProveThreadsPinned) {
  const std::string report = testing::TempDir() + "analyze_conf_pinned.txt";
  const RunResult result = run_command(
      std::string("cd ") + FLOTILLA_REPO_ROOT + " && " +
      FLOTILLA_ANALYZE_BIN +
      " --baseline analyze/baseline.txt --confined analyze/confined.txt"
      " --confinement-report " +
      report + " 2>/dev/null");
  EXPECT_EQ(result.exit_code, 0);
  const std::string text = read_file(report);
  for (const char* target :
       {"flux::Instance::*", "flux::FluxBackend::*", "slurm::SrunBackend::*",
        "slurm::Slurmctld::*", "dragon::Runtime::*",
        "dragon::DragonBackend::*", "dragon::FunctionExecutor::*",
        "prrte::DvmBackend::*"}) {
    EXPECT_NE(text.find(std::string("proved\tverified\tthreads-pinned\t*\t") +
                        target + "\t"),
              std::string::npos)
        << target;
  }
  EXPECT_EQ(text.find("shard-confined"), std::string::npos);
}

// Same invocation scripts/run_analyze.sh uses: every `verified` claim in
// the committed annotation file must prove against the real tree, with
// no stale claims.
TEST(AnalyzeConfinementTest, RepoTreeConfinementProofsHold) {
  const std::string report = testing::TempDir() + "analyze_conf_repo.txt";
  const RunResult result = run_command(
      std::string("cd ") + FLOTILLA_REPO_ROOT + " && " +
      FLOTILLA_ANALYZE_BIN +
      " --baseline analyze/baseline.txt --confined analyze/confined.txt"
      " --confinement-report " +
      report + " 2>/dev/null");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.lines.empty());
  const std::string text = read_file(report);
  EXPECT_NE(text.find(" 0 failed\n"), std::string::npos);
  EXPECT_EQ(text.find("\tfailed\t"), std::string::npos);
}

}  // namespace
