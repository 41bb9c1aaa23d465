// Interprocedural pass over the whole-program model
// (docs/correctness.md, "Interprocedural analysis").
//
//   ipc-determinism   taint: a trace sink (Tracer span/counter, FNV
//                     fingerprint) whose arguments call a function that
//                     transitively reads wall-clock time or unseeded
//                     randomness.
#pragma once

#include "analyze/callgraph.hpp"
#include "analyze/pass.hpp"

namespace flotilla::analyze {

class IpcDeterminismPass : public Pass {
 public:
  std::string_view name() const override { return "ipc-determinism"; }
  std::vector<std::string> rules() const override;
  void run(const AnalysisInput& input,
           std::vector<Finding>* findings) const override;
};

}  // namespace flotilla::analyze
