// Per-file facts for the interprocedural layer (docs/correctness.md,
// "Interprocedural analysis").
//
// Phase one of the two-phase driver: every file is reduced — independently,
// so the scan parallelizes — to the facts the whole-program passes need:
// function definitions with best-effort qualified names, call-shaped sites
// (with the mutexes held at each), writes to member fields and
// globals/statics, blocking calls, nondeterminism sources, and the
// declaration harvests (callback aliases/variables, virtual methods) the
// lock-discipline pass has always used. Phase two (analyze/callgraph.hpp)
// links the facts into a call graph and propagates summaries bottom-up.
//
// Everything here is heuristic and token-level, tuned to this codebase's
// style (members end in '_', globals start with 'g_' or are declared
// `static`); over-approximation rules are documented in
// docs/correctness.md.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyze/lexer.hpp"
#include "analyze/scopes.hpp"

namespace flotilla::analyze {

// Declarations harvested from a file plus its paired header: aliases of
// std::function, variables/members/params of callback type, and virtual
// method names. Shared by the lock-discipline pass and the facts
// collector so the two cannot drift.
struct DeclHarvest {
  std::set<std::string> callback_types;  // aliases of std::function
  std::set<std::string> callback_vars;   // variables/members/params
  std::set<std::string> virtual_methods;
};

bool is_callback_type(const DeclHarvest& decls, const std::string& type_name);
void harvest_decls(const std::vector<Token>& toks, DeclHarvest* decls);

// A function or lambda definition.
struct FunctionDef {
  int body_id = -1;        // index into BodyIndex::bodies
  std::string name;        // last component; "<lambda>" for lambdas
  std::string qualified;   // namespace/class-qualified best-effort name
  std::string class_ctx;   // enclosing class qualification; "" for free fns
  std::size_t line = 0;
  bool lambda = false;
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
  // Receiver identifier of a member call (`recv.f()` / `recv->f()`);
  // empty when the receiver is `this`, a chained call, or any other
  // non-identifier expression. The confinement pass uses it, together
  // with the member-type harvest, to narrow name-level member dispatch.
  std::string receiver;
  std::size_t token = 0;               // index of the name token
  std::size_t line = 0;
  std::vector<std::string> held_mutexes;  // raw names active at the site
};

// A write to shared-looking state: assignment (plain, compound, or
// subscripted), increment/decrement, or a mutating container call on a
// member field ('x_', 'this->x') or a global/static.
struct WriteFact {
  enum class Kind { kMember, kGlobal };
  int body_id = -1;
  Kind kind = Kind::kMember;
  std::string target;
  std::size_t line = 0;
  bool guarded = false;  // a lock guard was active at the write
};

// A guard-based mutex acquisition (lock_guard/unique_lock/scoped_lock
// declaration, or a deferred/unlocked guard re-locking). Raw mutex.lock()
// calls are not tracked — the codebase locks through RAII guards.
struct AcquireFact {
  int body_id = -1;
  std::string mutex;  // raw name; qualified with the class in phase two
  std::size_t line = 0;
};

// A potentially blocking call: cv/future .wait*/join member calls, the
// sleep family, ProcessPool-style wait_all.
struct BlockingFact {
  int body_id = -1;
  std::string name;
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

// An engine dispatch site: a member call to `in`/`at` whose argument
// list carries at least one inline lambda — a unit of work the engine
// will run as an event. The confinement pass adds a dispatcher -> lambda
// edge for each, so the storm-root reachability proof follows work the
// storm kernel schedules.
struct DispatchFact {
  int body_id = -1;
  std::vector<int> lambda_bodies;  // direct-child lambda bodies in the args
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
  std::vector<WriteFact> writes;
  std::vector<AcquireFact> acquires;
  std::vector<BlockingFact> blocking;
  std::vector<NondetFact> nondet;
  std::vector<SinkFact> sinks;
  std::vector<DispatchFact> dispatches;
  std::set<std::string> globals;        // mutable static/global names
  std::set<std::string> atomics;        // atomic-typed names (writes exempt)
  std::set<std::string> address_taken;  // &name / &A::name, not a call
  // Declared-variable types, `name -> CamelCase type last components`:
  // `sim::Engine engine_;` records engine_ -> {Engine}. Best-effort and
  // file-local; the confinement pass merges the maps program-wide to
  // narrow member-call dispatch by receiver.
  std::map<std::string, std::set<std::string>> member_types;
};

// Collects every fact for one file. Pure function of its inputs — safe to
// run concurrently across files.
FileFacts collect_facts(const LexedFile& lex, const BodyIndex& bodies,
                        const LexedFile* paired_header);

}  // namespace flotilla::analyze
