// Driver for flotilla-analyze: tools/flotilla_analyze.cpp is a thin
// argument parser over this. File collection, lexing, body indexing,
// waiver filtering (FLOTILLA_LINT_ALLOW), baseline suppression, and output
// formatting all live here.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "analyze/pass.hpp"

namespace flotilla::analyze {

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
