#include "analyze/facts.hpp"

#include <algorithm>
#include <cctype>
#include <map>

#include "analyze/determinism.hpp"
#include "analyze/guards.hpp"

namespace flotilla::analyze {

namespace {

bool is_ident(const Token& t) { return t.kind == TokenKind::kIdentifier; }
bool is_punct(const Token& t, const char* text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::string::traits_type::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

bool starts_with(const std::string& s, const char* prefix) {
  const std::size_t n = std::string::traits_type::length(prefix);
  return s.size() >= n && s.compare(0, n, prefix) == 0;
}

bool any_of(const std::string& t, std::initializer_list<const char*> set) {
  for (const char* s : set) {
    if (t == s) return true;
  }
  return false;
}

// Control-flow and operator keywords that look like calls but are not.
bool never_a_call(const std::string& t) {
  return any_of(t, {"if", "for", "while", "switch", "catch", "return",
                    "sizeof", "alignof", "alignas", "decltype", "typeid",
                    "noexcept", "static_assert", "throw", "assert",
                    "defined", "this"});
}

// Keywords after which an identifier-'(' sequence is still a call, not a
// declaration (`return helper()`, `case f():` ...).
bool call_position_keyword(const std::string& t) {
  return any_of(t, {"return", "throw", "else", "do", "case", "new",
                    "delete", "co_return", "co_await", "co_yield", "and",
                    "or", "not", "goto"});
}

bool member_blocking_name(const std::string& t) {
  return any_of(t, {"wait", "wait_for", "wait_until", "wait_all", "join"});
}

bool free_blocking_name(const std::string& t) {
  return any_of(t, {"sleep_for", "sleep_until", "usleep", "nanosleep"});
}

bool mutating_member_call(const std::string& t) {
  return any_of(t, {"push_back", "emplace_back", "emplace", "insert",
                    "erase", "clear", "push", "pop", "pop_back",
                    "pop_front", "resize", "assign", "store", "reset",
                    "swap", "append"});
}

// ---------------------------------------------------------------------------
// Declaration harvesting (moved verbatim from locks.cpp so the lock pass
// and the facts collector share one implementation)
// ---------------------------------------------------------------------------

}  // namespace

bool is_callback_type(const DeclHarvest& decls, const std::string& type_name) {
  return type_name == "function" ||
         decls.callback_types.count(type_name) > 0 ||
         ends_with(type_name, "Callback") || ends_with(type_name, "Handler");
}

void harvest_decls(const std::vector<Token>& toks, DeclHarvest* decls) {
  // Pass 1: `using X = std::function<...>` aliases.
  for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
    if (!is_ident(toks[i]) || toks[i].text != "using") continue;
    if (!is_ident(toks[i + 1]) || !is_punct(toks[i + 2], "=")) continue;
    for (std::size_t j = i + 3; j < toks.size() && j < i + 8; ++j) {
      if (is_punct(toks[j], ";")) break;
      if (is_ident(toks[j]) && toks[j].text == "function") {
        decls->callback_types.insert(toks[i + 1].text);
        break;
      }
    }
  }
  // Pass 2: variables/members/parameters of callback type, and virtual
  // method names.
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_ident(toks[i])) continue;
    if (toks[i].text == "virtual") {
      // Method name: the identifier right before the next '(' (stop at
      // ';' or '{'). Destructors are skipped.
      for (std::size_t j = i + 1; j + 1 < toks.size() && j < i + 24; ++j) {
        if (is_punct(toks[j], ";") || is_punct(toks[j], "{")) break;
        if (is_punct(toks[j + 1], "(") && is_ident(toks[j]) &&
            !(j > 0 && is_punct(toks[j - 1], "~"))) {
          decls->virtual_methods.insert(toks[j].text);
          break;
        }
      }
      continue;
    }
    if (!is_callback_type(*decls, toks[i].text)) continue;
    std::size_t j = skip_angles(toks, i + 1);
    while (j < toks.size() &&
           (is_punct(toks[j], "&") || is_punct(toks[j], "*") ||
            (is_ident(toks[j]) && toks[j].text == "const"))) {
      ++j;
    }
    if (j >= toks.size() || !is_ident(toks[j])) continue;
    if (j + 1 >= toks.size()) continue;
    const Token& after = toks[j + 1];
    if (is_punct(after, ";") || is_punct(after, ",") ||
        is_punct(after, ")") || is_punct(after, "=") ||
        is_punct(after, "{")) {
      decls->callback_vars.insert(toks[j].text);
    }
  }
}

namespace {

// ---------------------------------------------------------------------------
// Globals / atomics harvesting
// ---------------------------------------------------------------------------

// `static` declarations of mutable data (namespace scope, class scope, or
// function-local — all of them are shared state once the engine shards),
// plus atomic-typed names, whose lock-free writes are exempt.
void harvest_globals(const std::vector<Token>& toks,
                     std::set<std::string>* globals,
                     std::set<std::string>* atomics) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_ident(toks[i])) continue;
    const std::string& t = toks[i].text;
    if (t == "static") {
      bool immutable = false;
      for (std::size_t j = i + 1; j < toks.size() && j < i + 16; ++j) {
        if (is_punct(toks[j], ";") || is_punct(toks[j], "(")) break;
        if (is_ident(toks[j]) &&
            (toks[j].text == "const" || toks[j].text == "constexpr")) {
          immutable = true;
        }
        if (is_ident(toks[j]) && j + 1 < toks.size() &&
            (is_punct(toks[j + 1], ";") || is_punct(toks[j + 1], "=") ||
             is_punct(toks[j + 1], "{") || is_punct(toks[j + 1], "["))) {
          if (!immutable) globals->insert(toks[j].text);
          break;
        }
      }
      continue;
    }
    if (t == "atomic" || starts_with(t, "atomic_")) {
      std::size_t j = skip_angles(toks, i + 1);
      if (j == i + 1 && t == "atomic") continue;  // atomic without <...>
      while (j < toks.size() &&
             (is_punct(toks[j], "&") || is_punct(toks[j], "*"))) {
        ++j;
      }
      if (j < toks.size() && is_ident(toks[j])) atomics->insert(toks[j].text);
    }
  }
}

// ---------------------------------------------------------------------------
// Declared-variable types (receiver narrowing for the confinement pass)
// ---------------------------------------------------------------------------

// `Type name;` / `Type name_ = ...;` / `Ns::Type& param,` declarations:
// records name -> Type's last CamelCase component. Template wrappers
// resolve to the innermost-rightmost identifier (`std::unique_ptr<obs::
// Tracer> t_` records t_ -> Tracer), which is what a `t_->method()`
// receiver dispatches into. Lowercase type candidates (builtins,
// keywords, expression false-positives like `return x;`) are dropped.
void harvest_member_types(
    const std::vector<Token>& toks,
    std::map<std::string, std::set<std::string>>* types) {
  for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i])) continue;
    const Token& next = toks[i + 1];
    if (next.kind != TokenKind::kPunct ||
        !any_of(next.text, {";", "=", "{", ",", ")"})) {
      continue;
    }
    // Walk back over declarator decoration to the type's last token.
    std::size_t j = i;
    while (j > 0 && (is_punct(toks[j - 1], "&") ||
                     is_punct(toks[j - 1], "*") ||
                     (is_ident(toks[j - 1]) &&
                      toks[j - 1].text == "const"))) {
      --j;
    }
    if (j == 0) continue;
    std::string type;
    if (is_ident(toks[j - 1])) {
      type = toks[j - 1].text;
    } else if (is_punct(toks[j - 1], ">")) {
      // Template wrapper: innermost-rightmost identifier.
      for (std::size_t k = j - 1; k-- > 0;) {
        if (is_ident(toks[k])) {
          type = toks[k].text;
          break;
        }
        if (toks[k].kind == TokenKind::kPunct &&
            (toks[k].text == ";" || toks[k].text == "{" ||
             toks[k].text == "}")) {
          break;
        }
      }
    }
    if (type.empty() || std::isupper(static_cast<unsigned char>(type[0])) == 0) {
      continue;
    }
    (*types)[toks[i].text].insert(type);
  }
}

// ---------------------------------------------------------------------------
// Function definitions with qualified names
// ---------------------------------------------------------------------------

// Explicit qualified-id parts of the function whose body opens at
// toks[open_brace]: `void A::B::f(...) ... {` yields {A, B, f}. Empty when
// unparseable (operators, heavily decorated declarations). Constructor
// member-init lists (`Foo::Foo() : x_(0), y_{1} {`) are walked through.
std::vector<std::string> function_name_parts(const std::vector<Token>& toks,
                                             std::size_t open_brace) {
  std::size_t p = open_brace;
  for (int round = 0; round < 16; ++round) {
    // Walk back over decoration to the parameter list's ')'.
    std::size_t close = std::string::npos;
    int walked = 0;
    while (p-- > 0 && walked++ < 64) {
      const Token& t = toks[p];
      if (is_punct(t, ")")) {
        close = p;
        break;
      }
      if (t.kind == TokenKind::kPunct &&
          (t.text == ";" || t.text == "{" || t.text == "}" ||
           t.text == "(")) {
        return {};
      }
    }
    if (close == std::string::npos) return {};
    const std::size_t open = matching_open(toks, close);
    if (open == static_cast<std::size_t>(-1) || open == 0) return {};
    // Qualified id: ident (:: ident)* immediately before '('.
    std::vector<std::string> parts;
    std::size_t q = open - 1;
    while (is_ident(toks[q])) {
      parts.insert(parts.begin(), toks[q].text);
      if (q >= 2 && is_punct(toks[q - 1], "::") && is_ident(toks[q - 2])) {
        q -= 2;
        continue;
      }
      break;
    }
    if (parts.empty()) return {};
    // `: name(...)` or `, name(...)` — a constructor member-init entry,
    // not the parameter list. Retry from before it.
    if (q >= 1 &&
        (is_punct(toks[q - 1], ":") || is_punct(toks[q - 1], ","))) {
      p = q;  // continue the backward walk from the separator
      continue;
    }
    return parts;
  }
  return {};
}

std::string join_parts(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& part : parts) {
    if (!out.empty()) out += "::";
    out += part;
  }
  return out;
}

struct ScopeFrame {
  std::vector<std::string> names;  // namespace/class components ("" = anon)
  bool type = false;               // class/struct/union/enum scope
  int body_id = -1;                // function/lambda body, -1 otherwise
};

// Name(s) carried by a non-body '{' at token i: namespace components, a
// class-like name, or nothing. `slice_begin` is the token after the
// previous structural boundary.
void scope_brace_names(const std::vector<Token>& toks, std::size_t i,
                       ScopeFrame* frame) {
  // Find the statement slice: back to the previous ';', '{', or '}'.
  std::size_t begin = i;
  while (begin > 0) {
    const Token& t = toks[begin - 1];
    if (t.kind == TokenKind::kPunct &&
        (t.text == ";" || t.text == "{" || t.text == "}")) {
      break;
    }
    --begin;
    if (i - begin > 64) break;  // give up on pathological slices
  }
  // Last scope keyword in the slice wins (`template<class T> struct X`).
  std::size_t kw = std::string::npos;
  bool is_namespace = false;
  for (std::size_t j = begin; j < i; ++j) {
    if (!is_ident(toks[j])) continue;
    if (toks[j].text == "namespace") {
      kw = j;
      is_namespace = true;
    } else if (any_of(toks[j].text, {"class", "struct", "union", "enum"})) {
      // `enum class` keeps kw at the later keyword; both name the type.
      kw = j;
      is_namespace = false;
    }
  }
  if (kw == std::string::npos) return;
  if (is_namespace) {
    // namespace A::B { ... } or namespace { ... }
    std::vector<std::string> names;
    for (std::size_t j = kw + 1; j < i; ++j) {
      if (is_ident(toks[j])) {
        names.push_back(toks[j].text);
      } else if (!is_punct(toks[j], "::")) {
        break;
      }
    }
    if (names.empty()) names.push_back("");  // anonymous
    frame->names = std::move(names);
    return;
  }
  frame->type = true;
  // Type name: last identifier before the base-clause ':' or the '{',
  // skipping `final` and the `class` of `enum class`.
  std::string name;
  for (std::size_t j = kw + 1; j < i; ++j) {
    if (is_punct(toks[j], ":")) break;
    if (!is_ident(toks[j])) continue;
    if (any_of(toks[j].text, {"final", "class", "struct", "alignas"})) {
      continue;
    }
    name = toks[j].text;
  }
  if (!name.empty()) frame->names = {name};
}

void collect_functions(const LexedFile& lex, const BodyIndex& bodies,
                       FileFacts* facts) {
  const auto& toks = lex.tokens;
  std::map<std::size_t, const Body*> body_at;
  for (const Body& b : bodies.bodies) body_at[b.open] = &b;

  std::vector<ScopeFrame> stack;
  std::map<int, std::size_t> def_of_body;  // body id -> facts->functions idx

  auto scope_prefix = [&]() {
    std::string out;
    for (const ScopeFrame& frame : stack) {
      for (const std::string& n : frame.names) {
        if (n.empty()) continue;  // anonymous namespace
        if (!out.empty()) out += "::";
        out += n;
      }
    }
    return out;
  };
  auto innermost_is_type = [&]() {
    for (std::size_t k = stack.size(); k-- > 0;) {
      if (stack[k].body_id >= 0) return false;
      if (!stack[k].names.empty()) return stack[k].type;
    }
    return false;
  };
  auto enclosing_function = [&]() -> const FunctionDef* {
    for (std::size_t k = stack.size(); k-- > 0;) {
      if (stack[k].body_id < 0) continue;
      const auto it = def_of_body.find(stack[k].body_id);
      if (it != def_of_body.end()) return &facts->functions[it->second];
    }
    return nullptr;
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (is_punct(toks[i], "}")) {
      if (!stack.empty()) stack.pop_back();
      continue;
    }
    if (!is_punct(toks[i], "{")) continue;

    ScopeFrame frame;
    const auto at = body_at.find(i);
    if (at != body_at.end()) {
      const Body* body = at->second;
      frame.body_id = body->id;
      FunctionDef def;
      def.body_id = body->id;
      def.line = body->line;
      def.lambda = body->lambda;
      if (body->lambda) {
        const FunctionDef* outer = enclosing_function();
        def.name = "<lambda>";
        def.qualified =
            (outer != nullptr ? outer->qualified : scope_prefix()) +
            "::<lambda:" + std::to_string(body->line) + ">";
        def.class_ctx = outer != nullptr ? outer->class_ctx : "";
      } else {
        std::vector<std::string> parts = function_name_parts(toks, i);
        const std::string prefix = scope_prefix();
        if (parts.empty()) {
          def.name = body->name;
          def.qualified =
              prefix.empty() ? def.name : prefix + "::" + def.name;
          def.class_ctx = innermost_is_type() ? prefix : "";
        } else {
          def.name = parts.back();
          const std::string joined = join_parts(parts);
          def.qualified = prefix.empty() ? joined : prefix + "::" + joined;
          if (parts.size() > 1) {
            // Out-of-line definition: everything before the last part
            // qualifies the class (or, occasionally, a namespace — an
            // acceptable over-approximation).
            def.class_ctx =
                def.qualified.substr(0, def.qualified.rfind("::"));
          } else {
            def.class_ctx = innermost_is_type() ? prefix : "";
          }
        }
      }
      def_of_body[body->id] = facts->functions.size();
      facts->functions.push_back(std::move(def));
    } else {
      scope_brace_names(toks, i, &frame);
    }
    stack.push_back(std::move(frame));
  }
}

// ---------------------------------------------------------------------------
// Per-body facts
// ---------------------------------------------------------------------------

// True when toks[i] names a member/global write target.
bool write_target(const std::vector<Token>& toks, std::size_t i,
                  const FileFacts& facts, WriteFact::Kind* kind) {
  const std::string& name = toks[i].text;
  if (facts.atomics.count(name) > 0) return false;
  const bool via_this = i >= 2 && is_punct(toks[i - 1], "->") &&
                        is_ident(toks[i - 2]) && toks[i - 2].text == "this";
  if (via_this || (ends_with(name, "_") && name.size() > 1 &&
                   !ends_with(name, "__"))) {
    *kind = WriteFact::Kind::kMember;
    return true;
  }
  if (facts.globals.count(name) > 0 || starts_with(name, "g_")) {
    *kind = WriteFact::Kind::kGlobal;
    return true;
  }
  return false;
}

// Write shape immediately around toks[i] (the target identifier):
// assignment, compound assignment, ++/--, subscripted assignment, or a
// mutating container member call.
bool is_write_shape(const std::vector<Token>& toks, std::size_t i) {
  const auto punct_at = [&](std::size_t j, const char* t) {
    return j < toks.size() && is_punct(toks[j], t);
  };
  const auto assign_at = [&](std::size_t j) {
    // `=` that is not `==` (the lexer emits one '=' per character).
    if (!punct_at(j, "=")) return false;
    if (punct_at(j + 1, "=")) return false;
    if (j > 0 && (punct_at(j - 1, "=") || punct_at(j - 1, "!") ||
                  punct_at(j - 1, "<") || punct_at(j - 1, ">"))) {
      return false;
    }
    return true;
  };
  // ++x / --x / x++ / x--
  if (i >= 2 && ((punct_at(i - 1, "+") && punct_at(i - 2, "+")) ||
                 (punct_at(i - 1, "-") && punct_at(i - 2, "-")))) {
    return true;
  }
  if ((punct_at(i + 1, "+") && punct_at(i + 2, "+")) ||
      (punct_at(i + 1, "-") && punct_at(i + 2, "-"))) {
    return true;
  }
  std::size_t j = i + 1;
  // x[...]... — subscript, then look at what follows.
  if (punct_at(j, "[")) {
    int depth = 0;
    for (; j < toks.size(); ++j) {
      if (toks[j].kind != TokenKind::kPunct) continue;
      if (toks[j].text == "[") ++depth;
      if (toks[j].text == "]" && --depth == 0) {
        ++j;
        break;
      }
    }
  }
  if (assign_at(j)) return true;
  // Compound: x += / -= / *= / ... / <<= / >>=
  static const char* const kCompound = "+-*/%&|^";
  if (j < toks.size() && toks[j].kind == TokenKind::kPunct &&
      toks[j].text.size() == 1 &&
      std::string(kCompound).find(toks[j].text[0]) != std::string::npos &&
      assign_at(j + 1)) {
    return true;
  }
  if ((punct_at(j, "<") && punct_at(j + 1, "<") && assign_at(j + 2)) ||
      (punct_at(j, ">") && punct_at(j + 1, ">") && assign_at(j + 2))) {
    return true;
  }
  // x.push_back(...) and friends.
  if ((punct_at(j, ".") || punct_at(j, "->")) && j + 2 < toks.size() &&
      is_ident(toks[j + 1]) && mutating_member_call(toks[j + 1].text) &&
      punct_at(j + 2, "(")) {
    return true;
  }
  return false;
}

void collect_body_facts(const LexedFile& lex, const BodyIndex& bodies,
                        const Body& body, FileFacts* facts) {
  const auto& toks = lex.tokens;
  GuardWalker walker(toks);
  walker.on_acquire = [&](const Guard& guard, std::size_t line) {
    for (const std::string& m : guard.mutexes) {
      facts->acquires.push_back({body.id, m, line});
    }
  };
  for (std::size_t i = body.open;
       i <= body.close && i < toks.size(); ++i) {
    if (bodies.body_of[i] != body.id) continue;  // nested lambda/fn
    if (walker.step(&i)) continue;
    const Token& tok = toks[i];

    // Address-taken functions: `&name` / `&A::name` in argument or
    // assignment position, not immediately invoked.
    if (is_punct(tok, "&") && i + 1 < toks.size() &&
        is_ident(toks[i + 1]) && i > 0 &&
        (toks[i - 1].kind == TokenKind::kPunct
             ? any_of(toks[i - 1].text, {"(", ",", "=", "{", "<"})
             : toks[i - 1].text == "return")) {
      std::size_t j = i + 1;
      while (j + 2 < toks.size() && is_punct(toks[j + 1], "::") &&
             is_ident(toks[j + 2])) {
        j += 2;
      }
      if (j + 1 >= toks.size() || !is_punct(toks[j + 1], "(")) {
        facts->address_taken.insert(toks[j].text);
      }
      continue;
    }
    if (!is_ident(tok)) continue;

    // Nondeterminism sources (taint origins — no file scope here).
    if (const char* rule = nondet_source_rule(toks, i)) {
      facts->nondet.push_back({body.id, rule, tok.text, tok.line});
    }

    const bool called = i + 1 < toks.size() && is_punct(toks[i + 1], "(");
    const bool member = i > 0 && (is_punct(toks[i - 1], ".") ||
                                  is_punct(toks[i - 1], "->"));

    // Blocking calls.
    if (called && ((member && member_blocking_name(tok.text)) ||
                   (!member && free_blocking_name(tok.text)))) {
      facts->blocking.push_back({body.id, tok.text, tok.line});
    }

    // Trace-output sinks: Tracer begin/end with a SpanType argument,
    // counter(), or FNV/fingerprint helpers.
    if (called) {
      bool sink = false;
      std::string what;
      if (member && (tok.text == "begin" || tok.text == "end")) {
        const std::size_t close = matching_close(toks, i + 1);
        for (std::size_t j = i + 2; j < close && j < toks.size(); ++j) {
          if (is_ident(toks[j]) && toks[j].text == "SpanType") {
            sink = true;
            what = "trace span";
            break;
          }
        }
      } else if (member && tok.text == "counter") {
        sink = true;
        what = "trace counter";
      } else if (starts_with(tok.text, "fnv") ||
                 tok.text.find("fingerprint") != std::string::npos) {
        sink = true;
        what = "trace fingerprint";
      }
      if (sink) {
        const std::size_t close = matching_close(toks, i + 1);
        facts->sinks.push_back(
            {body.id, what, tok.line, i + 1, close});
      }
    }

    // Call-shaped sites. `std::move(x)(...)` is recorded as a call of x.
    if (called && tok.text == "move" && i + 4 < toks.size() &&
        is_ident(toks[i + 2]) && is_punct(toks[i + 3], ")") &&
        is_punct(toks[i + 4], "(")) {
      CallSiteFact call;
      call.body_id = body.id;
      call.name = toks[i + 2].text;
      call.moved = true;
      call.token = i + 2;
      call.line = toks[i + 2].line;
      call.held_mutexes = walker.active_mutexes();
      facts->calls.push_back(std::move(call));
      continue;
    }
    if (called && !never_a_call(tok.text)) {
      // Skip declarations: `Type name(...)`, `vector<int> name(...)`.
      bool declaration_like = false;
      if (i > 0) {
        const Token& prev = toks[i - 1];
        if (prev.kind == TokenKind::kIdentifier &&
            !call_position_keyword(prev.text)) {
          declaration_like = true;
        } else if (prev.kind == TokenKind::kPunct &&
                   (prev.text == ">" || prev.text == "&" ||
                    prev.text == "*" || prev.text == "~")) {
          declaration_like = true;
        }
      }
      if (!declaration_like) {
        CallSiteFact call;
        call.body_id = body.id;
        call.name = tok.text;
        call.member = member;
        call.token = i;
        call.line = tok.line;
        if (member && i >= 2 && is_ident(toks[i - 2])) {
          if (toks[i - 2].text == "this") {
            call.on_this = true;
          } else {
            call.receiver = toks[i - 2].text;
          }
        }
        if (i >= 2 && is_punct(toks[i - 1], "::")) {
          // Explicit qualification: A::B::name(...).
          std::size_t q = i;
          while (q >= 2 && is_punct(toks[q - 1], "::") &&
                 is_ident(toks[q - 2])) {
            call.qualifier.insert(call.qualifier.begin(),
                                  toks[q - 2].text);
            q -= 2;
          }
        }
        call.held_mutexes = walker.active_mutexes();
        facts->calls.push_back(std::move(call));
      }
    }

    // Engine dispatch sites: member calls to in/at carrying an inline
    // lambda. The lambda bodies are the units of work the engine runs;
    // the confinement pass follows them from the storm roots.
    if (called && member && any_of(tok.text, {"in", "at"})) {
      const std::size_t open = i + 1;
      const std::size_t close = matching_close(toks, open);
      DispatchFact dispatch;
      dispatch.body_id = body.id;
      for (const Body& b : bodies.bodies) {
        if (b.lambda && b.parent == body.id && b.open > open &&
            b.open < close) {
          dispatch.lambda_bodies.push_back(b.id);
        }
      }
      if (!dispatch.lambda_bodies.empty()) {
        facts->dispatches.push_back(std::move(dispatch));
      }
    }

    // Writes to shared-looking state.
    WriteFact::Kind kind;
    if (!called && write_target(toks, i, *facts, &kind) &&
        is_write_shape(toks, i)) {
      facts->writes.push_back(
          {body.id, kind, tok.text, tok.line, walker.any_active()});
    }
  }
}

}  // namespace

FileFacts collect_facts(const LexedFile& lex, const BodyIndex& bodies,
                        const LexedFile* paired_header) {
  FileFacts facts;
  harvest_decls(lex.tokens, &facts.decls);
  if (paired_header != nullptr) {
    harvest_decls(paired_header->tokens, &facts.decls);
    harvest_globals(paired_header->tokens, &facts.globals, &facts.atomics);
  }
  harvest_globals(lex.tokens, &facts.globals, &facts.atomics);
  if (paired_header != nullptr) {
    harvest_member_types(paired_header->tokens, &facts.member_types);
  }
  harvest_member_types(lex.tokens, &facts.member_types);
  collect_functions(lex, bodies, &facts);
  for (const Body& body : bodies.bodies) {
    collect_body_facts(lex, bodies, body, &facts);
  }
  return facts;
}

}  // namespace flotilla::analyze
