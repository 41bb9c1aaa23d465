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
#pragma once

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

}  // namespace flotilla::analyze
