// Confinement-proof pass (docs/correctness.md#confinement-proofs).
//
// The shared-state inventory (analyze/ipc.hpp) lists every unguarded
// write reachable from the event loop; analyze/confined.txt annotates
// why each is safe without a guard. The full stack runs serially on one
// single-shard engine; only the storm kernel drains a threaded engine.
// This pass turns the annotations whose status column says "verified"
// into proof obligations:
//
//   owner-confined   writers all live inside the owning component and
//                    no global the claim covers is also written
//                    unguarded outside it. The round-barrier publication
//                    half of the argument is dynamic (TSan leg plus the
//                    storm's shards x threads matrix), not static.
//   threads-pinned   no function the claim covers is reachable from the
//                    threaded storm roots (sim::run_storm and the storm
//                    harness sources) along call, engine-dispatch and
//                    nested-lambda edges, so the pinned code never runs
//                    on an engine worker thread.
//   host-tooling     never provable here; must use status "assume".
//
// Failures surface as conf-unproven findings at the offending write (or
// at the claim line for vacuous claims), and any claim — verified or
// assumed — whose function pattern no longer names a function in the
// scanned tree is a conf-stale-claim hard error. Both rules are kError
// severity: a wrong confinement claim is exactly the class of bug that
// lets the threaded storm kernel race.
#pragma once

#include <iosfwd>

#include "analyze/ipc.hpp"
#include "analyze/pass.hpp"

namespace flotilla::analyze {

// Verdict for one claim line of the annotation file.
struct ConfinementClaim {
  std::string verdict;   // "proved" | "assumed" | "failed"
  std::string status;    // claim status column: "verified" | "assume"
  std::string kind;      // owner-confined | threads-pinned | ...
  std::string target;
  std::string function;  // claim pattern
  int entries = 0;       // matched shared-state inventory entries
  std::string detail;    // proof summary, failure reason, or "-"
  std::size_t line = 0;  // claim line in the annotation file
};

struct ConfinementResult {
  std::vector<Finding> findings;
  std::vector<ConfinementClaim> claims;  // one per claim, file order
};

// Checks every claim in input.confined against the dispatch model.
// Empty result when no claims or no program model were provided.
ConfinementResult analyze_confinement(const AnalysisInput& input);

// Tab-separated per-claim report with a summary line (proved / assumed /
// failed counts); written by --confinement-report and uploaded as a CI
// artifact so the proof surface is reviewable per run.
void write_confinement_report(const std::vector<ConfinementClaim>& claims,
                              std::ostream& out);

class ConfinementPass : public Pass {
 public:
  std::string_view name() const override { return "confinement"; }
  std::vector<std::string> rules() const override;
  void run(const AnalysisInput& input,
           std::vector<Finding>* findings) const override;
};

}  // namespace flotilla::analyze
