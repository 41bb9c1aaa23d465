// Interprocedural passes over the whole-program model
// (docs/correctness.md, "Interprocedural analysis").
//
//   ipc-locks         self-deadlock: a call made while holding a mutex
//                     whose callee (at any depth) re-acquires the same
//                     mutex; and blocking-under-lock: a call made under a
//                     lock whose callee transitively blocks (cv waits,
//                     joins, sleeps). Depth-0 blocking names (join,
//                     wait_all, the sleep family) fire too; cv wait
//                     members do not at depth 0, since `cv.wait(lk)`
//                     releases the lock it is handed.
//   ipc-determinism   taint: a trace sink (Tracer span/counter, FNV
//                     fingerprint) whose arguments call a function that
//                     transitively reads wall-clock time or unseeded
//                     randomness.
//   shared-state      concurrency-readiness audit for the engine-sharding
//                     refactor (ROADMAP item 1): every member field and
//                     global/static written without a guard by code
//                     reachable from sim::Engine::run. Reported at
//                     severity "note" — an inventory, not a gate — and
//                     dumped in full by --shared-state-report.
#pragma once

#include <iosfwd>

#include "analyze/callgraph.hpp"
#include "analyze/pass.hpp"

namespace flotilla::analyze {

class IpcLocksPass : public Pass {
 public:
  std::string_view name() const override { return "ipc-locks"; }
  std::vector<std::string> rules() const override;
  void run(const AnalysisInput& input,
           std::vector<Finding>* findings) const override;
};

class IpcDeterminismPass : public Pass {
 public:
  std::string_view name() const override { return "ipc-determinism"; }
  std::vector<std::string> rules() const override;
  void run(const AnalysisInput& input,
           std::vector<Finding>* findings) const override;
};

// One unguarded write location, aggregated per (file, function, target).
struct SharedStateEntry {
  WriteFact::Kind kind = WriteFact::Kind::kMember;
  std::string target;
  std::string file;       // display path
  std::size_t line = 0;   // first write site
  std::string function;   // qualified writer
  int sites = 0;          // number of write sites aggregated
  // Reason from the matching confined annotation; empty = unannotated.
  std::string confinement;
};

// One line of analyze/confined.txt: a claim that writes to `target` from
// `function` are safe without a guard (owner-confined to one shard,
// published at a round barrier, or pinned away from the threaded storm
// roots — docs/correctness.md#confinement-proofs). `function` is
// matched as a qualified-name component suffix; a trailing "::*"
// annotates every member of a component. `target` may be "*" to cover
// all of the function's writes. `status` is "verified" (the confinement
// pass must mechanically prove it — a proof failure is a conf-* finding)
// or "assume" (reviewed claim, staleness-checked only). `kind` is the
// reason's leading word: owner-confined, threads-pinned, or
// host-tooling.
struct ConfinedAnnotation {
  std::string target;
  std::string function;
  std::string status;  // "verified" | "assume"
  std::string kind;
  std::string reason;  // starts with kind, e.g. "owner-confined: ..."
  std::size_t line = 0;
};

// Parses the tab/space-separated annotation file (`target function
// status reason...` per line, '#' comments; the reason must open with a
// recognized kind). False (with *error) on IO or parse failure.
bool load_confined_annotations(const std::string& path,
                               std::vector<ConfinedAnnotation>* out,
                               std::string* error);

// True when `qualified` is `suffix` or ends with "::" + suffix.
bool component_suffix(const std::string& qualified,
                      const std::string& suffix);

// True when the annotation's function pattern covers `qualified`. A plain
// pattern matches as a component suffix ("Engine::step" matches
// "sim::Engine::step"); "X::*" matches every member of component X,
// including lambdas defined inside its methods.
bool function_matches(const std::string& qualified,
                      const std::string& pattern);

// First annotation whose target and function pattern cover the write, or
// nullptr. First match wins — order the claims file specific-first.
const ConfinedAnnotation* match_annotation(
    const std::vector<ConfinedAnnotation>* confined,
    const std::string& target, const std::string& function);

// Unguarded writes reachable from sim::Engine::run (empty when the
// program model is missing or no root matches). Sorted by (file, line,
// target). When `confined` is given, matching entries carry the
// annotation's reason in SharedStateEntry::confinement.
std::vector<SharedStateEntry> collect_shared_state(
    const AnalysisInput& input,
    const std::vector<ConfinedAnnotation>* confined = nullptr);

// Tab-separated inventory with a header line plus a summary line
// splitting confined-by-annotation from unannotated entries; consumed by
// the sharding work as its to-guard checklist and uploaded as a CI
// artifact.
void write_shared_state_report(const std::vector<SharedStateEntry>& entries,
                               std::ostream& out);

class SharedStatePass : public Pass {
 public:
  std::string_view name() const override { return "shared-state"; }
  std::vector<std::string> rules() const override;
  void run(const AnalysisInput& input,
           std::vector<Finding>* findings) const override;
};

}  // namespace flotilla::analyze
