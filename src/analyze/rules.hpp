// Rule metadata catalog: one-line description and the
// docs/correctness.md anchor every rule is documented under. Consumed by
// the SARIF writer (per-rule fullDescription/helpUri). Every rule is
// severity "error": its findings fail the run.
#pragma once

#include <string>

namespace flotilla::analyze {

struct RuleMeta {
  const char* id;
  const char* summary;  // SARIF fullDescription.text
  const char* anchor;   // docs/correctness.md#<anchor>
};

// Catalog entry for `id`, nullptr for unknown rules.
const RuleMeta* find_rule_meta(const std::string& id);

}  // namespace flotilla::analyze
