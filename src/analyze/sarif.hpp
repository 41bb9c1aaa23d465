// SARIF 2.1.0 emission (github.com/oasis-tcs/sarif-spec; the subset GitHub
// code scanning ingests) plus the plain-text diagnostic format.
//
// Output is deterministic by construction: findings are emitted in sorted
// order with a fixed field layout and no timestamps/absolute paths, so the
// same tree and baseline produce a byte-identical document on any machine
// — which is what lets CI diff the artifact at all.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "analyze/pass.hpp"

namespace flotilla::analyze {

struct SarifResult {
  Finding finding;
  bool suppressed = false;  // present in the committed baseline
};

// Writes a complete SARIF 2.1.0 document. `rule_ids` become
// tool.driver.rules (sorted, deduped by the caller); suppressed results
// carry an external suppression so code scanning closes them out.
void write_sarif(std::ostream& os, const std::string& tool_name,
                 const std::vector<std::string>& rule_ids,
                 const std::vector<SarifResult>& results);

// One "file:line: error: [rule] message" line per finding.
void write_text(std::ostream& os, const std::vector<Finding>& findings);

// JSON string escaping (also used by tests to build expected documents).
std::string json_escape(const std::string& s);

}  // namespace flotilla::analyze
