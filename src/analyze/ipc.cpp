#include "analyze/ipc.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <tuple>

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

// ---------------------------------------------------------------------------
// shared-state
// ---------------------------------------------------------------------------

bool component_suffix(const std::string& qualified,
                      const std::string& suffix) {
  if (qualified.size() < suffix.size()) return false;
  if (qualified.compare(qualified.size() - suffix.size(), suffix.size(),
                        suffix) != 0) {
    return false;
  }
  const std::size_t at = qualified.size() - suffix.size();
  if (at == 0) return true;
  return at >= 2 && qualified.compare(at - 2, 2, "::") == 0;
}

bool function_matches(const std::string& qualified,
                      const std::string& pattern) {
  if (pattern.size() > 3 &&
      pattern.compare(pattern.size() - 3, 3, "::*") == 0) {
    const std::string component = pattern.substr(0, pattern.size() - 3) + "::";
    if (qualified.compare(0, component.size(), component) == 0) return true;
    return qualified.find("::" + component) != std::string::npos;
  }
  return component_suffix(qualified, pattern);
}

const ConfinedAnnotation* match_annotation(
    const std::vector<ConfinedAnnotation>* confined,
    const std::string& target, const std::string& function) {
  if (confined == nullptr) return nullptr;
  for (const ConfinedAnnotation& a : *confined) {
    if (a.target != "*" && a.target != target) continue;
    if (function_matches(function, a.function)) return &a;
  }
  return nullptr;
}

bool load_confined_annotations(const std::string& path,
                               std::vector<ConfinedAnnotation>* out,
                               std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = path + ": cannot open confined-annotation file";
    return false;
  }
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream fields(line);
    ConfinedAnnotation a;
    a.line = lineno;
    fields >> a.target >> a.function >> a.status;
    std::getline(fields, a.reason);
    const std::size_t start = a.reason.find_first_not_of(" \t");
    a.reason = start == std::string::npos ? "" : a.reason.substr(start);
    if (a.target.empty() || a.function.empty() || a.reason.empty() ||
        (a.status != "verified" && a.status != "assume")) {
      *error = path + ":" + std::to_string(lineno) +
               ": expected 'target function verified|assume reason...'";
      return false;
    }
    const std::size_t colon = a.reason.find_first_of(": \t");
    a.kind = colon == std::string::npos ? a.reason : a.reason.substr(0, colon);
    if (a.kind != "owner-confined" && a.kind != "threads-pinned" &&
        a.kind != "host-tooling") {
      *error = path + ":" + std::to_string(lineno) +
               ": reason must open with owner-confined, threads-pinned, "
               "or host-tooling, got '" +
               a.kind + "'";
      return false;
    }
    out->push_back(std::move(a));
  }
  return true;
}

std::vector<SharedStateEntry> collect_shared_state(
    const AnalysisInput& input,
    const std::vector<ConfinedAnnotation>* confined) {
  if (!input.program) return {};
  const ProgramModel& model = *input.program;

  std::vector<char> reachable(model.functions.size(), 0);
  std::vector<int> stack;
  for (const FunctionNode& node : model.functions) {
    if (component_suffix(node.def.qualified, "sim::Engine::run")) {
      reachable[node.id] = 1;
      stack.push_back(node.id);
    }
  }
  bool hub_expanded = false;
  while (!stack.empty()) {
    const int fn = stack.back();
    stack.pop_back();
    for (int callee : model.callees[fn]) {
      if (reachable[callee] == 0) {
        reachable[callee] = 1;
        stack.push_back(callee);
      }
    }
    // Anything scheduled as a callback can run from the event loop:
    // over-approximate with every lambda and address-taken function.
    if (model.summaries[fn].invokes_callback && !hub_expanded) {
      hub_expanded = true;
      for (int target : model.callback_targets) {
        if (reachable[target] == 0) {
          reachable[target] = 1;
          stack.push_back(target);
        }
      }
    }
  }

  std::map<std::tuple<std::string, std::string, std::string>,
           SharedStateEntry>
      merged;
  for (const FunctionNode& node : model.functions) {
    if (reachable[node.id] == 0) continue;
    for (const WriteFact& write : model.summaries[node.id].writes) {
      if (write.guarded) continue;
      const auto key = std::make_tuple(node.display_file, write.target,
                                       node.def.qualified);
      auto [it, inserted] = merged.try_emplace(key);
      SharedStateEntry& entry = it->second;
      if (inserted) {
        entry.kind = write.kind;
        entry.target = write.target;
        entry.file = node.display_file;
        entry.line = write.line;
        entry.function = node.def.qualified;
      }
      entry.line = std::min(entry.line, write.line);
      ++entry.sites;
    }
  }

  std::vector<SharedStateEntry> entries;
  for (auto& [key, entry] : merged) {
    (void)key;
    const ConfinedAnnotation* a =
        match_annotation(confined, entry.target, entry.function);
    if (a != nullptr) entry.confinement = a->reason;
    entries.push_back(std::move(entry));
  }
  std::sort(entries.begin(), entries.end(),
            [](const SharedStateEntry& a, const SharedStateEntry& b) {
              return std::tie(a.file, a.line, a.target, a.function) <
                     std::tie(b.file, b.line, b.target, b.function);
            });
  return entries;
}

void write_shared_state_report(const std::vector<SharedStateEntry>& entries,
                               std::ostream& out) {
  std::size_t confined = 0;
  for (const SharedStateEntry& e : entries) {
    if (!e.confinement.empty()) ++confined;
  }
  out << "# flotilla-analyze shared-state report: unguarded writes "
         "reachable from sim::Engine::run\n";
  out << "# total " << entries.size() << " entries: " << confined
      << " confined-by-annotation, " << entries.size() - confined
      << " unannotated\n";
  out << "# kind\ttarget\tfirst-site\tsites\tfunction\tconfinement\n";
  for (const SharedStateEntry& e : entries) {
    out << (e.kind == WriteFact::Kind::kMember ? "member" : "global")
        << '\t' << e.target << '\t' << e.file << ':' << e.line << '\t'
        << e.sites << '\t' << e.function << '\t'
        << (e.confinement.empty() ? "-" : e.confinement) << '\n';
  }
}

std::vector<std::string> SharedStatePass::rules() const {
  return {"shared-state"};
}

void SharedStatePass::run(const AnalysisInput& input,
                          std::vector<Finding>* findings) const {
  for (const SharedStateEntry& e : collect_shared_state(input)) {
    std::string message =
        std::string(e.kind == WriteFact::Kind::kMember ? "member '"
                                                       : "global '") +
        e.target + "' written without a guard in '" + e.function + "'";
    if (e.sites > 1) {
      message += " (" + std::to_string(e.sites) + " sites)";
    }
    message +=
        ", reachable from sim::Engine::run; guard it or make it "
        "shard-local before the engine-sharding refactor (ROADMAP 1)";
    findings->push_back({e.file, e.line, "shared-state", message});
  }
}

}  // namespace flotilla::analyze
