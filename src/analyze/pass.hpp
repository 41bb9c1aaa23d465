// Pass registry for the static-analysis framework.
//
// A Pass sees the whole lexed tree at once (cross-file analyses like
// include-graph layering need global state) and appends Findings. The
// driver (analyze/driver.hpp) owns file collection, waiver filtering and
// output formatting; passes only detect.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analyze/lexer.hpp"
#include "analyze/scopes.hpp"

namespace flotilla::analyze {

struct Finding {
  std::string file;     // display path (repo-relative when scanned via driver)
  std::size_t line = 0;
  std::string rule;     // stable rule id, e.g. "arch-layering"
  std::string message;

  friend bool operator<(const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  }
  friend bool operator==(const Finding& a, const Finding& b) {
    return a.file == b.file && a.line == b.line && a.rule == b.rule &&
           a.message == b.message;
  }
};

struct SourceFile {
  std::string display;        // diagnostic path ('/'-separated)
  LexedFile lex;
  BodyIndex bodies;
  // True when the file is simulation code subject to determinism rules
  // (see analyze/determinism.hpp for the scope definition).
  bool determinism_scope = false;
  // Paired header lexed alongside a .cpp (declarations referenced by
  // heuristic passes live there); nullptr when none exists.
  std::shared_ptr<LexedFile> paired_header;
};

struct AnalysisInput {
  std::vector<SourceFile> files;  // sorted by display path
};

class Pass {
 public:
  virtual ~Pass() = default;
  virtual std::string_view name() const = 0;
  // Stable rule ids this pass can emit (for --list-rules and SARIF rule
  // metadata). Sorted.
  virtual std::vector<std::string> rules() const = 0;
  virtual void run(const AnalysisInput& input,
                   std::vector<Finding>* findings) const = 0;
};

class PassRegistry {
 public:
  void add(std::unique_ptr<Pass> pass) { passes_.push_back(std::move(pass)); }
  const std::vector<std::unique_ptr<Pass>>& passes() const { return passes_; }
  const Pass* find(std::string_view pass_name) const;

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

// True when `comment_line`'s comment carries a well-formed waiver for
// `rule`: FLOTILLA_LINT_ALLOW(<rule>|*): <mandatory reason>.
bool waived(const LexedFile& lex, std::size_t line, const std::string& rule);

}  // namespace flotilla::analyze
