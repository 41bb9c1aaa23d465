// Shared driver for the analysis tools.
//
// Both tools/flotilla_analyze.cpp and the flotilla-lint compatibility
// front-end are thin argument parsers over this: file collection, lexing,
// body indexing, waiver filtering, baseline suppression, and output
// formatting all live here so the two binaries cannot drift.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "analyze/pass.hpp"

namespace flotilla::analyze {

// Collects analyzable sources (.cpp .cc .cxx .hpp .h .hh .ipp) under each
// root (file roots are taken verbatim, directory roots are walked
// recursively). Results are '/'-normalized, sorted, deduped. False (with
// *error) when a root does not exist.
bool collect_sources(const std::vector<std::string>& roots,
                     std::vector<std::string>* paths, std::string* error);

// Loads one file: lex, body index, determinism scope, paired header (for
// x.cpp, a sibling x.hpp or x.h). `display` is the path used in
// diagnostics. False (with *error) when the file cannot be read.
bool load_source(const std::string& path, const std::string& display,
                 SourceFile* out, std::string* error);

// Drops findings whose line (or the line above) carries a well-formed
// FLOTILLA_LINT_ALLOW waiver for the rule. `input` must contain the files
// the findings refer to (matched by display path).
void filter_waived(const AnalysisInput& input, std::vector<Finding>* findings);

struct DriverOptions {
  std::vector<std::string> roots;  // files or directories to scan
  // Prefix stripped from collected paths to form display paths (""
  // leaves paths as collected). Display paths are what the baseline and
  // SARIF record, so scans from the repo root are machine-independent.
  std::string strip_prefix;
  std::string baseline_path;    // "" = no baseline
  bool write_baseline = false;  // regenerate baseline_path and exit 0
  bool sarif = false;           // SARIF 2.1.0 instead of text findings
  std::string output_path;      // "" = stdout
  // File-loading worker threads; 0 = one per hardware thread. Output is
  // byte-identical for every value: loads land in per-path slots and all
  // analysis runs after the pool joins.
  unsigned jobs = 0;
};

// Runs every registered pass and reports. Returns the process exit code:
// 0 clean (all findings baselined), 1 fresh findings, 2 usage/IO error.
// Text findings / SARIF go to `out` (or options.output_path); the
// one-line summary and errors go to `err`.
int run_driver(const DriverOptions& options, const PassRegistry& registry,
               std::ostream& out, std::ostream& err);

}  // namespace flotilla::analyze
