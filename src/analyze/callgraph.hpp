// Whole-program call graph and bottom-up function summaries
// (docs/correctness.md, "Interprocedural analysis").
//
// Phase two of the two-phase driver: the per-file facts
// (analyze/facts.hpp) are linked into a ProgramModel — every function
// definition becomes a node, every call-shaped site is resolved to a
// candidate callee set by qualified name, and per-function summaries
// (the nondeterminism sources each function reaches) are propagated
// bottom-up to a fixpoint. The interprocedural pass (analyze/ipc.hpp)
// consumes the model read-only.
//
// Resolution is deliberately an over-approximation:
//   - unqualified free calls try, in order: methods of the caller's own
//     class, free functions in the same file, then any function of that
//     name anywhere;
//   - member calls (x.f(), this->f()) match every function named f that
//     is defined inside some class (filtered to the caller's class for
//     `this->`);
//   - names harvested as virtual methods add every same-named definition
//     (dynamic dispatch can land in any override);
//   - calls through callback variables (the `*Callback`/std::function
//     declaration harvest) resolve to no direct edge.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analyze/facts.hpp"
#include "analyze/pass.hpp"

namespace flotilla::analyze {

// Where a summary entry came from: directly from the function's own body
// (via < 0, line = source line), or from a callee (via = callee function
// id, line = line of the call site). Chains are reconstructed by
// following `via` through the callee's summary.
struct Origin {
  int via = -1;
  std::size_t line = 0;
};

// Transitive effects of calling a function, after fixpoint propagation.
struct FunctionSummary {
  std::map<std::string, Origin> nondet;  // taint rule -> origin
};

struct FunctionNode {
  int id = -1;
  int file_index = -1;        // into AnalysisInput::files
  FunctionDef def;
};

// A call-shaped site after resolution.
struct ResolvedCall {
  int caller = -1;            // function id, -1 when at namespace scope
  int file_index = -1;
  std::size_t token = 0;      // index of the name token in its file
  std::size_t line = 0;
  std::string name;
  bool callback = false;      // through a callback variable; callees empty
  std::vector<int> callees;   // candidate function ids (direct + virtual)
};

struct ProgramModel {
  std::vector<FunctionNode> functions;
  std::vector<FunctionSummary> summaries;  // parallel to functions
  std::vector<std::vector<int>> callees;   // union of edges per function
  std::vector<ResolvedCall> calls;
  // Program-wide declaration harvest (callback vars, virtual methods).
  DeclHarvest merged;

  // Functions named `name` (last component), ids in ascending order.
  const std::vector<int>* by_name(const std::string& name) const;

  // Human-readable via-trail for the taint entry `rule` of `fn`, e.g.
  // " (via 'stamp' -> 'wall_seconds')"; empty for direct entries.
  std::string trail(int fn, const std::string& rule) const;

  std::map<std::string, std::vector<int>> name_index;
};

// Links facts across files and runs summary propagation to a fixpoint.
ProgramModel build_program(const AnalysisInput& input);

}  // namespace flotilla::analyze
