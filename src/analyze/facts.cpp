#include "analyze/facts.hpp"

#include <map>

#include "analyze/determinism.hpp"

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

// ---------------------------------------------------------------------------
// Declaration harvesting
// ---------------------------------------------------------------------------

// Skips a balanced <...> starting at toks[i] == "<"; returns the index
// past the closing ">", or i when not an angle list.
std::size_t skip_angles(const std::vector<Token>& toks, std::size_t i) {
  if (i >= toks.size() || !is_punct(toks[i], "<")) return i;
  int depth = 0;
  for (std::size_t j = i; j < toks.size(); ++j) {
    if (is_punct(toks[j], "<")) ++depth;
    if (is_punct(toks[j], ">") && --depth == 0) return j + 1;
    if (is_punct(toks[j], ";")) break;  // malformed; bail out
  }
  return i;
}

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

void collect_body_facts(const LexedFile& lex, const BodyIndex& bodies,
                        const Body& body, FileFacts* facts) {
  const auto& toks = lex.tokens;
  for (std::size_t i = body.open;
       i <= body.close && i < toks.size(); ++i) {
    if (bodies.body_of[i] != body.id) continue;  // nested lambda/fn
    const Token& tok = toks[i];

    if (!is_ident(tok)) continue;

    // Nondeterminism sources (taint origins — no file scope here).
    if (const char* rule = nondet_source_rule(toks, i)) {
      facts->nondet.push_back({body.id, rule, tok.text, tok.line});
    }

    const bool called = i + 1 < toks.size() && is_punct(toks[i + 1], "(");
    const bool member = i > 0 && (is_punct(toks[i - 1], ".") ||
                                  is_punct(toks[i - 1], "->"));

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
        if (member && i >= 2 && is_ident(toks[i - 2]) &&
            toks[i - 2].text == "this") {
          call.on_this = true;
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
        facts->calls.push_back(std::move(call));
      }
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
  }
  collect_functions(lex, bodies, &facts);
  for (const Body& body : bodies.bodies) {
    collect_body_facts(lex, bodies, body, &facts);
  }
  return facts;
}

}  // namespace flotilla::analyze
