// Driver for flotilla-analyze: tools/flotilla_analyze.cpp is a thin
// argument parser over this. File collection, lexing, body indexing,
// waiver filtering (FLOTILLA_LINT_ALLOW) and output formatting all live
// here, on one thread.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "analyze/pass.hpp"

namespace flotilla::analyze {

struct DriverOptions {
  std::vector<std::string> roots;  // files or directories to scan
  // Prefix stripped from collected paths to form display paths (""
  // leaves paths as collected). Display paths are what the findings and
  // SARIF record, so scans from the repo root are machine-independent.
  std::string strip_prefix;
  bool sarif = false;       // SARIF 2.1.0 instead of text findings
  std::string output_path;  // "" = stdout
};

// Runs every registered pass and reports. Returns the process exit code:
// 0 clean, 1 findings, 2 usage/IO error.
// Text findings / SARIF go to `out` (or options.output_path); the
// one-line summary and errors go to `err`.
int run_driver(const DriverOptions& options, const PassRegistry& registry,
               std::ostream& out, std::ostream& err);

}  // namespace flotilla::analyze
