#include "analyze/confine.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <set>
#include <vector>

#include "analyze/callgraph.hpp"

namespace flotilla::analyze {

namespace {

std::string last_component(const std::string& qualified) {
  const std::size_t pos = qualified.rfind("::");
  return pos == std::string::npos ? qualified : qualified.substr(pos + 2);
}

}  // namespace

ConfinementResult analyze_confinement(const AnalysisInput& input) {
  ConfinementResult result;
  if (input.confined == nullptr || input.confined->empty() ||
      input.program == nullptr) {
    return result;
  }
  const ProgramModel& model = *input.program;

  // Per-file body-id -> function-id maps (same construction as
  // build_program's).
  std::vector<std::map<int, int>> fn_of_body(input.files.size());
  for (const FunctionNode& node : model.functions) {
    fn_of_body[node.file_index][node.def.body_id] = node.id;
  }
  auto function_at = [&](int file_index, int body_id) {
    const auto& map = fn_of_body[file_index];
    const auto it = map.find(body_id);
    return it == map.end() ? -1 : it->second;
  };

  // Program-wide receiver-type harvest: variable name -> declared
  // CamelCase type last components.
  std::map<std::string, std::set<std::string>> member_types;
  for (const SourceFile& file : input.files) {
    for (const auto& [var, types] : file.facts.member_types) {
      member_types[var].insert(types.begin(), types.end());
    }
  }

  // Credible call edges. Name-level resolution smears reachability
  // across unrelated same-named methods, so a member call only counts
  // when the receiver is credibly the callee's class: `this`, a receiver
  // whose harvested declared type matches, a call that resolves into a
  // single class, or a same-class candidate. Free-call form always
  // counts — it runs inline.
  std::vector<std::vector<int>> adjacency(model.functions.size());
  for (const ResolvedCall& call : model.calls) {
    if (call.caller < 0 || call.callback || call.callees.empty()) continue;
    if (!call.member || call.on_this) {
      for (const int callee : call.callees) {
        adjacency[call.caller].push_back(callee);
      }
      continue;
    }
    const std::set<std::string>* receiver_types = nullptr;
    if (!call.receiver.empty()) {
      const auto it = member_types.find(call.receiver);
      if (it != member_types.end()) receiver_types = &it->second;
    }
    if (receiver_types != nullptr) {
      std::vector<int> matched;
      for (const int callee : call.callees) {
        const std::string cls =
            last_component(model.functions[callee].def.class_ctx);
        if (!cls.empty() && receiver_types->count(cls) > 0) {
          matched.push_back(callee);
        }
      }
      if (matched.empty()) {
        // Base-pointer / alias dispatch the harvest cannot see: keep
        // every candidate rather than dropping the edge, so the storm
        // closure stays an over-approximation.
        matched = call.callees;
      }
      for (const int callee : matched) {
        adjacency[call.caller].push_back(callee);
      }
      continue;
    }
    std::set<std::string> classes;
    for (const int callee : call.callees) {
      classes.insert(model.functions[callee].def.class_ctx);
    }
    const std::string& caller_class =
        model.functions[call.caller].def.class_ctx;
    for (const int callee : call.callees) {
      const std::string& cls = model.functions[callee].def.class_ctx;
      if (classes.size() == 1 || (!caller_class.empty() &&
                                  cls == caller_class)) {
        adjacency[call.caller].push_back(callee);
      }
    }
  }

  // Dispatch seams: a lambda handed to the engine's in/at runs as an
  // event the dispatcher scheduled.
  std::set<int> dispatched_lambdas;
  for (std::size_t fi = 0; fi < input.files.size(); ++fi) {
    const int file_index = static_cast<int>(fi);
    for (const DispatchFact& d : input.files[fi].facts.dispatches) {
      const int dispatcher = function_at(file_index, d.body_id);
      if (dispatcher < 0) continue;
      for (const int body : d.lambda_bodies) {
        const int lambda = function_at(file_index, body);
        if (lambda < 0) continue;
        adjacency[dispatcher].push_back(lambda);
        dispatched_lambdas.insert(lambda);
      }
    }
  }

  // Lambdas not used as dispatch arguments (stored callbacks,
  // comparators, immediately-invoked blocks) run wherever their
  // enclosing function runs.
  for (const FunctionNode& node : model.functions) {
    if (!node.def.lambda || dispatched_lambdas.count(node.id) > 0) continue;
    const BodyIndex& bodies = input.files[node.file_index].bodies;
    int parent = node.def.body_id >= 0
                     ? bodies.bodies[node.def.body_id].parent
                     : -1;
    while (parent >= 0) {
      const int enclosing = function_at(node.file_index, parent);
      if (enclosing >= 0) {
        adjacency[enclosing].push_back(node.id);
        break;
      }
      parent = bodies.bodies[parent].parent;
    }
  }

  // Storm closure: everything reachable from the threaded storm roots
  // along credible call edges plus every dispatch/nested-lambda edge.
  // No callback-hub expansion here — the hub models "anything scheduled
  // can run from the event loop", which is the full-stack loop, not the
  // storm harness; threads-pinned is a claim about the storm roots
  // specifically.
  std::vector<int> storm_parent(model.functions.size(), -2);  // -2 unreached
  std::vector<int> stack;
  for (const FunctionNode& node : model.functions) {
    const bool root =
        component_suffix(node.def.qualified, "sim::run_storm") ||
        node.display_file.find("sim/storm") != std::string::npos;
    if (root && storm_parent[node.id] == -2) {
      storm_parent[node.id] = -1;
      stack.push_back(node.id);
    }
  }
  while (!stack.empty()) {
    const int fn = stack.back();
    stack.pop_back();
    for (const int to : adjacency[fn]) {
      if (storm_parent[to] == -2) {
        storm_parent[to] = fn;
        stack.push_back(to);
      }
    }
  }
  auto storm_trail = [&](int fn) {
    std::vector<std::string> path;
    for (int cur = fn; cur >= 0 && path.size() < 24; cur = storm_parent[cur]) {
      path.push_back(model.functions[cur].def.name);
    }
    std::string out;
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      out += out.empty() ? "'" : "' -> '";
      out += *it;
    }
    return out + "'";
  };

  // Inventory entries grouped by the claim that covers them.
  const std::vector<SharedStateEntry> entries = collect_shared_state(input);
  std::map<const ConfinedAnnotation*, std::vector<const SharedStateEntry*>>
      by_claim;
  for (const SharedStateEntry& e : entries) {
    const ConfinedAnnotation* a =
        match_annotation(input.confined, e.target, e.function);
    if (a != nullptr) by_claim[a].push_back(&e);
  }
  const std::vector<const SharedStateEntry*> kNoEntries;
  for (const ConfinedAnnotation& a : *input.confined) {
    ConfinementClaim row;
    row.status = a.status;
    row.kind = a.kind;
    row.target = a.target;
    row.function = a.function;
    row.line = a.line;
    const std::string claim_at =
        " (claim at " + input.confined_path + ":" +
        std::to_string(a.line) + ")";
    const auto matched_it = by_claim.find(&a);
    const auto& matched =
        matched_it == by_claim.end() ? kNoEntries : matched_it->second;
    row.entries = static_cast<int>(matched.size());
    auto fail = [&](const std::string& rule, const std::string& file,
                    std::size_t line, const std::string& message) {
      result.findings.push_back({file, line, rule, message});
      row.verdict = "failed";
      if (row.detail.empty()) row.detail = message;
    };

    // Staleness gates everything: a claim naming nothing is dead weight
    // that would silently re-cover code if the name ever came back.
    bool names_function = false;
    for (const FunctionNode& node : model.functions) {
      if (function_matches(node.def.qualified, a.function)) {
        names_function = true;
        break;
      }
    }
    if (!names_function) {
      fail("conf-stale-claim", input.confined_path, a.line,
           "confinement claim for '" + a.target + "' in '" + a.function +
               "' matches no function in the scanned tree; delete the "
               "stale line");
      result.claims.push_back(std::move(row));
      continue;
    }

    if (a.status == "assume") {
      row.verdict = "assumed";
      row.detail = "-";
      result.claims.push_back(std::move(row));
      continue;
    }

    if (a.kind == "host-tooling") {
      fail("conf-unproven", input.confined_path, a.line,
           "host-tooling confinement cannot be mechanically verified; "
           "use status 'assume'");
    } else if (a.kind == "threads-pinned") {
      const FunctionNode* hit = nullptr;
      for (const FunctionNode& node : model.functions) {
        if (storm_parent[node.id] != -2 &&
            function_matches(node.def.qualified, a.function)) {
          hit = &node;
          break;
        }
      }
      if (hit != nullptr) {
        fail("conf-unproven", hit->display_file, hit->def.line,
             "'" + hit->def.qualified +
                 "' is claimed threads-pinned but is reachable from the "
                 "threaded storm roots: " + storm_trail(hit->id) +
                 claim_at);
      } else {
        row.verdict = "proved";
        row.detail = "unreachable from sim::run_storm closure";
      }
    } else if (matched.empty()) {
      fail("conf-unproven", input.confined_path, a.line,
           "confinement claim for '" + a.target + "' in '" + a.function +
               "' covers no unguarded-write inventory entry; downgrade "
               "to 'assume' or delete the line");
    } else {  // owner-confined
      bool escaped = false;
      for (const SharedStateEntry* e : matched) {
        if (e->kind != WriteFact::Kind::kGlobal) continue;
        for (const SharedStateEntry& other : entries) {
          if (other.kind != WriteFact::Kind::kGlobal ||
              other.target != e->target) {
            continue;
          }
          if (match_annotation(input.confined, other.target,
                               other.function) == &a) {
            continue;
          }
          escaped = true;
          fail("conf-unproven", other.file, other.line,
               "global '" + other.target +
                   "' claimed owner-confined to '" + a.function +
                   "' is also written unguarded by '" + other.function +
                   "'" + claim_at);
        }
      }
      if (!escaped) {
        row.verdict = "proved";
        row.detail = std::to_string(matched.size()) +
                     " writers inside owner; barrier publication gated "
                     "dynamically";
      }
    }
    result.claims.push_back(std::move(row));
  }

  std::sort(result.findings.begin(), result.findings.end());
  result.findings.erase(
      std::unique(result.findings.begin(), result.findings.end()),
      result.findings.end());
  return result;
}

void write_confinement_report(const std::vector<ConfinementClaim>& claims,
                              std::ostream& out) {
  std::size_t proved = 0;
  std::size_t assumed = 0;
  std::size_t failed = 0;
  for (const ConfinementClaim& c : claims) {
    if (c.verdict == "proved") {
      ++proved;
    } else if (c.verdict == "assumed") {
      ++assumed;
    } else {
      ++failed;
    }
  }
  out << "# flotilla-analyze confinement-proof report: confined.txt "
         "claims checked against the dispatch model\n";
  out << "# total " << claims.size() << " claims: " << proved
      << " proved, " << assumed << " assumed, " << failed << " failed\n";
  out << "# verdict\tstatus\tkind\ttarget\tfunction\tentries\tdetail\n";
  for (const ConfinementClaim& c : claims) {
    out << c.verdict << '\t' << c.status << '\t' << c.kind << '\t'
        << c.target << '\t' << c.function << '\t' << c.entries << '\t'
        << (c.detail.empty() ? "-" : c.detail) << '\n';
  }
}

std::vector<std::string> ConfinementPass::rules() const {
  return {"conf-stale-claim", "conf-unproven"};
}

void ConfinementPass::run(const AnalysisInput& input,
                          std::vector<Finding>* findings) const {
  ConfinementResult result = analyze_confinement(input);
  findings->insert(findings->end(), result.findings.begin(),
                   result.findings.end());
}

}  // namespace flotilla::analyze
