// Per-file facts for the interprocedural layer (docs/correctness.md,
// "Interprocedural analysis").
//
// Phase one of the two-phase driver: every file is reduced — independently,
// so the scan parallelizes — to the facts the whole-program passes need:
// function definitions with best-effort qualified names, call-shaped
// sites, nondeterminism sources, trace sinks, and the declaration harvests
// (callback aliases/variables, virtual methods) call resolution needs.
// Phase two (analyze/callgraph.hpp) links the facts into a call graph and
// propagates summaries bottom-up.
//
// Everything here is heuristic and token-level, tuned to this codebase's
// style (members end in '_'); over-approximation rules are documented in
// docs/correctness.md.
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "analyze/lexer.hpp"
#include "analyze/scopes.hpp"

namespace flotilla::analyze {

// Declarations harvested from a file plus its paired header: aliases of
// std::function, variables/members/params of callback type, and virtual
// method names.
struct DeclHarvest {
  std::set<std::string> callback_types;  // aliases of std::function
  std::set<std::string> callback_vars;   // variables/members/params
  std::set<std::string> virtual_methods;
};

// A function or lambda definition.
struct FunctionDef {
  int body_id = -1;        // index into BodyIndex::bodies
  std::string name;        // last component; "<lambda>" for lambdas
  std::string qualified;   // namespace/class-qualified best-effort name
  std::string class_ctx;   // enclosing class qualification; "" for free fns
  std::size_t line = 0;
};

// A call-shaped site: `name(...)`, `x.name(...)`, `A::name(...)`, or
// `std::move(name)(...)`. Resolution to callees happens in phase two —
// a site whose name is a harvested callback variable becomes a callback
// invocation, not a direct edge.
struct CallSiteFact {
  int body_id = -1;
  std::string name;                    // callee last component
  std::vector<std::string> qualifier;  // explicit A::B:: prefix, outer first
  bool member = false;                 // invoked through '.' or '->'
  bool on_this = false;                // receiver is `this`
  bool moved = false;                  // std::move(name)(...) form
  std::size_t token = 0;               // index of the name token
  std::size_t line = 0;
};

// A nondeterminism source read: wall-clock or unseeded-random token (the
// determinism pass's own tables, applied without the per-file scope so
// taint can originate anywhere and flow into scoped code).
struct NondetFact {
  int body_id = -1;
  std::string rule;  // "wall-clock" | "unseeded-random"
  std::string token;
  std::size_t line = 0;
};

// A trace-output sink: Tracer begin/end with a SpanType argument, a
// Tracer counter() call, or an FNV/fingerprint call. Argument tokens are
// (open, close) exclusive.
struct SinkFact {
  int body_id = -1;
  std::string what;  // for diagnostics, e.g. "trace span"
  std::size_t line = 0;
  std::size_t open = 0;   // token index of '('
  std::size_t close = 0;  // token index of matching ')'
};

struct FileFacts {
  DeclHarvest decls;
  std::vector<FunctionDef> functions;
  std::vector<CallSiteFact> calls;
  std::vector<NondetFact> nondet;
  std::vector<SinkFact> sinks;
};

// Collects every fact for one file. Pure function of its inputs — safe to
// run concurrently across files.
FileFacts collect_facts(const LexedFile& lex, const BodyIndex& bodies,
                        const LexedFile* paired_header);

}  // namespace flotilla::analyze
