#include "analyze/ipc.hpp"

#include <map>
#include <set>

namespace flotilla::analyze {

namespace {

// Blocking even with no resolvable callee: these names block the calling
// thread outright. The cv wait members are excluded at depth 0 —
// `cv.wait(lk)` releases the lock it is handed — but still propagate
// through summaries, because a *caller's* lock is not released.
bool depth0_blocking(const std::string& name) {
  return name == "join" || name == "wait_all" || name == "sleep_for" ||
         name == "sleep_until" || name == "usleep" || name == "nanosleep";
}

std::string quoted_list(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ", ";
    out += "'" + n + "'";
  }
  return out;
}

void push_unique(const Finding& f, std::set<std::string>* seen,
                 std::vector<Finding>* findings) {
  const std::string key =
      f.file + "|" + std::to_string(f.line) + "|" + f.rule + "|" + f.message;
  if (seen->insert(key).second) findings->push_back(f);
}

}  // namespace

// ---------------------------------------------------------------------------
// ipc-locks
// ---------------------------------------------------------------------------

std::vector<std::string> IpcLocksPass::rules() const {
  return {"ipc-blocking-under-lock", "ipc-self-deadlock"};
}

void IpcLocksPass::run(const AnalysisInput& input,
                       std::vector<Finding>* findings) const {
  if (!input.program) return;
  const ProgramModel& model = *input.program;
  std::set<std::string> seen;
  for (const ResolvedCall& call : model.calls) {
    if (call.held.empty() || call.callback) continue;
    const std::string& file = input.files[call.file_index].display;

    // Self-deadlock: some callee (transitively) re-acquires a held mutex.
    // One finding per re-acquired mutex; callees are visited in id order,
    // so the reported path is deterministic.
    std::map<std::string, std::string> reacquired;  // mutex -> where
    bool blocks = depth0_blocking(call.name);
    std::string block_path;
    for (int callee : call.callees) {
      const FunctionSummary& sub = model.summaries[callee];
      for (const std::string& mutex : call.held) {
        if (sub.mutexes.count(mutex) == 0) continue;
        if (reacquired.count(mutex) > 0) continue;
        reacquired[mutex] =
            "'" + model.functions[callee].def.name + "'" +
            model.trail(callee, &FunctionSummary::mutexes, mutex);
      }
      if (!blocks && block_path.empty() && !sub.blocking.empty()) {
        const auto& entry = *sub.blocking.begin();
        block_path =
            ": '" + model.functions[callee].def.name + "'" +
            model.trail(callee, &FunctionSummary::blocking, entry.first) +
            " reaches '" + entry.first + "'";
      }
    }
    for (const auto& [mutex, where] : reacquired) {
      push_unique(
          {file, call.line, "ipc-self-deadlock",
           "call to '" + call.name + "' while holding '" + mutex +
               "' self-deadlocks: " + where +
               " re-acquires it; release the lock before the call, or "
               "acquire the mutex once at the top level"},
          &seen, findings);
    }
    if (blocks) {
      push_unique(
          {file, call.line, "ipc-blocking-under-lock",
           "'" + call.name + "' blocks while holding " +
               quoted_list(call.held) +
               "; never sleep or join with a lock held"},
          &seen, findings);
    } else if (!block_path.empty()) {
      push_unique(
          {file, call.line, "ipc-blocking-under-lock",
           "call to '" + call.name + "' may block while holding " +
               quoted_list(call.held) + block_path +
               "; release the lock before calling into blocking code"},
          &seen, findings);
    }
  }
}

// ---------------------------------------------------------------------------
// ipc-determinism
// ---------------------------------------------------------------------------

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
                     model.trail(callee, &FunctionSummary::nondet, rule) +
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
