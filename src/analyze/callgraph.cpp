#include "analyze/callgraph.hpp"

#include <algorithm>
#include <set>

namespace flotilla::analyze {

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// True when `qualified` ends with the explicit A::B::name written at a
// call site — matched component-wise ("B::f" matches "ns::B::f" but not
// "ClubB::f").
bool qualifier_matches(const std::string& qualified,
                       const std::vector<std::string>& qualifier,
                       const std::string& name) {
  std::string suffix;
  for (const std::string& part : qualifier) suffix += part + "::";
  suffix += name;
  if (!ends_with(qualified, suffix)) return false;
  const std::size_t at = qualified.size() - suffix.size();
  if (at == 0) return true;
  return at >= 2 && qualified.compare(at - 2, 2, "::") == 0;
}

// Member calls with these names are near-always STL container /
// smart-pointer / sync-primitive operations (`items_.size()`,
// `lines_.clear()`, `pending_.pop_front()`); resolving them to
// same-named repo methods manufactures edges into unrelated classes —
// the dominant false-positive source in early runs. A genuine call of a
// repo method with one of these names is invisible to the analysis;
// docs/correctness.md lists this blind spot.
bool stl_member_name(const std::string& name) {
  static const char* const kNames[] = {
      "append",    "assign",   "at",          "back",     "begin",
      "c_str",     "clear",    "contains",    "count",    "data",
      "detach",    "emplace",  "emplace_back", "emplace_front", "empty",
      "end",       "erase",    "exchange",    "find",     "front",
      "get",       "has_value", "insert",     "join",     "joinable",
      "length",    "load",     "lock",        "notify_all", "notify_one",
      "pop",       "pop_back", "pop_front",   "push",     "push_back",
      "push_front", "rbegin",  "release",     "rend",     "reserve",
      "reset",     "resize",   "size",        "store",    "str",
      "substr",    "swap",     "top",         "try_lock", "unlock",
      "value",     "value_or", "wait",        "wait_for", "wait_until",
  };
  for (const char* n : kNames) {
    if (name == n) return true;
  }
  return false;
}

}  // namespace

const std::vector<int>* ProgramModel::by_name(const std::string& name) const {
  const auto it = name_index.find(name);
  return it == name_index.end() ? nullptr : &it->second;
}

std::string ProgramModel::trail(int fn, const std::string& rule) const {
  std::string out;
  int cur = fn;
  for (int depth = 0; depth < 16; ++depth) {
    const auto& map = summaries[cur].nondet;
    const auto it = map.find(rule);
    if (it == map.end() || it->second.via < 0) break;
    cur = it->second.via;
    out += out.empty() ? " (via '" : "' -> '";
    out += functions[cur].def.name;
  }
  if (!out.empty()) out += "')";
  return out;
}

ProgramModel build_program(const AnalysisInput& input) {
  ProgramModel model;

  // Nodes, name index, merged declaration harvest.
  for (std::size_t fi = 0; fi < input.files.size(); ++fi) {
    const SourceFile& file = input.files[fi];
    const DeclHarvest& d = file.facts.decls;
    model.merged.callback_vars.insert(d.callback_vars.begin(),
                                      d.callback_vars.end());
    model.merged.virtual_methods.insert(d.virtual_methods.begin(),
                                        d.virtual_methods.end());
    for (const FunctionDef& def : file.facts.functions) {
      FunctionNode node;
      node.id = static_cast<int>(model.functions.size());
      node.file_index = static_cast<int>(fi);
      node.def = def;
      model.name_index[def.name].push_back(node.id);
      model.functions.push_back(std::move(node));
    }
  }
  model.summaries.resize(model.functions.size());
  model.callees.resize(model.functions.size());

  // Per-file body-id -> function-id maps, then direct summary entries.
  std::vector<std::map<int, int>> fn_of_body(input.files.size());
  for (const FunctionNode& node : model.functions) {
    fn_of_body[node.file_index][node.def.body_id] = node.id;
  }
  auto function_at = [&](int file_index, int body_id) {
    const auto& map = fn_of_body[file_index];
    const auto it = map.find(body_id);
    return it == map.end() ? -1 : it->second;
  };

  for (std::size_t fi = 0; fi < input.files.size(); ++fi) {
    const FileFacts& facts = input.files[fi].facts;
    const int file_index = static_cast<int>(fi);
    for (const NondetFact& n : facts.nondet) {
      const int fn = function_at(file_index, n.body_id);
      if (fn < 0) continue;
      model.summaries[fn].nondet.emplace(n.rule, Origin{-1, n.line});
    }
  }

  // Resolve call sites.
  for (std::size_t fi = 0; fi < input.files.size(); ++fi) {
    const SourceFile& file = input.files[fi];
    const int file_index = static_cast<int>(fi);
    for (const CallSiteFact& site : file.facts.calls) {
      ResolvedCall call;
      call.caller = function_at(file_index, site.body_id);
      call.file_index = file_index;
      call.token = site.token;
      call.line = site.line;
      call.name = site.name;
      const std::string class_ctx =
          call.caller >= 0 ? model.functions[call.caller].def.class_ctx
                           : std::string();

      // Callback variables shadow any same-named function.
      if (site.moved || model.merged.callback_vars.count(site.name) > 0) {
        call.callback = true;
        model.calls.push_back(std::move(call));
        continue;
      }

      std::set<int> targets;
      const std::vector<int>* named =
          site.member && stl_member_name(site.name)
              ? nullptr
              : model.by_name(site.name);
      if (named != nullptr) {
        if (!site.qualifier.empty()) {
          for (int id : *named) {
            if (qualifier_matches(model.functions[id].def.qualified,
                                  site.qualifier, site.name)) {
              targets.insert(id);
            }
          }
        } else if (site.member) {
          // x.f() / this->f(): any method named f; `this` narrows to the
          // caller's class when it has matching methods.
          std::set<int> same_class;
          for (int id : *named) {
            const FunctionDef& def = model.functions[id].def;
            if (def.class_ctx.empty()) continue;
            targets.insert(id);
            if (site.on_this && !class_ctx.empty() &&
                def.class_ctx == class_ctx) {
              same_class.insert(id);
            }
          }
          if (!same_class.empty()) targets = std::move(same_class);
        } else {
          // Unqualified free-call form. Methods of the caller's own class
          // (implicit this->) win, then free functions in this file, then
          // any definition of that name.
          for (int id : *named) {
            if (!class_ctx.empty() &&
                model.functions[id].def.class_ctx == class_ctx) {
              targets.insert(id);
            }
          }
          if (targets.empty()) {
            for (int id : *named) {
              if (model.functions[id].file_index == file_index &&
                  model.functions[id].def.class_ctx.empty()) {
                targets.insert(id);
              }
            }
          }
          if (targets.empty()) {
            targets.insert(named->begin(), named->end());
          }
        }
        // Dynamic dispatch: every override is a possible target.
        if (model.merged.virtual_methods.count(site.name) > 0) {
          for (int id : *named) {
            if (!model.functions[id].def.class_ctx.empty()) {
              targets.insert(id);
            }
          }
        }
      }
      call.callees.assign(targets.begin(), targets.end());
      if (call.caller >= 0) {
        auto& edges = model.callees[call.caller];
        for (int id : call.callees) {
          if (std::find(edges.begin(), edges.end(), id) == edges.end()) {
            edges.push_back(id);
          }
        }
      }
      model.calls.push_back(std::move(call));
    }
  }
  for (auto& edges : model.callees) std::sort(edges.begin(), edges.end());

  // Bottom-up propagation to a fixpoint. Merging only ever inserts keys,
  // so the iteration is monotone; ties keep the first origin seen, which
  // is deterministic because calls are visited in file/token order.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const ResolvedCall& call : model.calls) {
      if (call.caller < 0) continue;
      FunctionSummary& caller = model.summaries[call.caller];
      for (int callee : call.callees) {
        if (callee == call.caller) continue;
        const FunctionSummary& sub = model.summaries[callee];
        for (const auto& entry : sub.nondet) {
          if (caller.nondet.emplace(entry.first, Origin{callee, call.line})
                  .second) {
            changed = true;
          }
        }
      }
    }
  }

  return model;
}

}  // namespace flotilla::analyze
