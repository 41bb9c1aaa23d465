#include "analyze/ipc.hpp"

#include <set>

namespace flotilla::analyze {

namespace {

void push_unique(const Finding& f, std::set<std::string>* seen,
                 std::vector<Finding>* findings) {
  const std::string key =
      f.file + "|" + std::to_string(f.line) + "|" + f.rule + "|" + f.message;
  if (seen->insert(key).second) findings->push_back(f);
}

}  // namespace

std::vector<std::string> IpcDeterminismPass::rules() const {
  return {"ipc-determinism"};
}

void IpcDeterminismPass::run(const AnalysisInput& input,
                             std::vector<Finding>* findings) const {
  if (!input.program) return;
  const ProgramModel& model = *input.program;

  std::vector<std::vector<const ResolvedCall*>> by_file(input.files.size());
  for (const ResolvedCall& call : model.calls) {
    if (!call.callback && !call.callees.empty()) {
      by_file[call.file_index].push_back(&call);
    }
  }

  std::set<std::string> seen;
  for (std::size_t fi = 0; fi < input.files.size(); ++fi) {
    const SourceFile& file = input.files[fi];
    for (const SinkFact& sink : file.facts.sinks) {
      for (const ResolvedCall* call : by_file[fi]) {
        if (call->token <= sink.open || call->token >= sink.close) continue;
        for (int callee : call->callees) {
          const FunctionSummary& sub = model.summaries[callee];
          for (const auto& [rule, origin] : sub.nondet) {
            (void)origin;
            const std::string what =
                rule == "wall-clock" ? "wall-clock time"
                                     : "unseeded randomness";
            push_unique(
                {file.display, sink.line, "ipc-determinism",
                 sink.what + " takes a value from '" + call->name +
                     "': '" + model.functions[callee].def.name + "'" +
                     model.trail(callee, rule) +
                     " reads " + what +
                     "; trace content must be simulation-deterministic "
                     "(derive it from sim time or a seeded RngStream)"},
                &seen, findings);
          }
        }
      }
    }
  }
}

}  // namespace flotilla::analyze
