#include "analyze/rules.hpp"

namespace flotilla::analyze {

namespace {

constexpr const char* kPasses = "pass-catalogue";
constexpr const char* kDeterminism = "determinism-rules";
constexpr const char* kIpc = "interprocedural-analysis";
constexpr const char* kConfinement = "confinement-proofs";

const RuleMeta kRules[] = {
    {"arch-config", Severity::kError,
     "analyze/layers.conf is missing, unreadable, or malformed; the layer "
     "DAG cannot be checked without it.",
     kPasses},
    {"arch-cycle", Severity::kError,
     "Two headers include each other (directly or transitively); include "
     "cycles make layering meaningless and break incremental builds.",
     kPasses},
    {"arch-layering", Severity::kError,
     "An include crosses the layer DAG declared in analyze/layers.conf in "
     "a forbidden direction.",
     kPasses},
    {"arch-unmapped", Severity::kError,
     "A source file is not covered by any layer prefix in "
     "analyze/layers.conf, so no layering rule applies to it.",
     kPasses},
    {"conf-stale-claim", Severity::kError,
     "A confinement claim's function pattern matches nothing in the "
     "scanned tree; dead claims silently re-cover code if the name ever "
     "returns, so they are hard errors.",
     kConfinement},
    {"conf-unproven", Severity::kError,
     "A claim marked 'verified' in the confined-annotation file could "
     "not be mechanically proved against the dispatch model; fix the "
     "code, the claim, or downgrade it to 'assume' with review.",
     kConfinement},
    {"hardware-concurrency", Severity::kError,
     "std::thread::hardware_concurrency() makes behavior depend on the "
     "host machine; worker counts must come from configuration.",
     kDeterminism},
    {"ipc-blocking-under-lock", Severity::kError,
     "A call made while holding a mutex reaches code that blocks (a "
     "condition-variable wait, join, or sleep) at some call depth; the "
     "lock stays held for the whole blocking period.",
     kIpc},
    {"ipc-determinism", Severity::kError,
     "A trace span, counter, or fingerprint takes a value from a function "
     "that transitively reads wall-clock time or unseeded randomness, so "
     "trace content differs run to run.",
     kIpc},
    {"ipc-self-deadlock", Severity::kError,
     "A call made while holding a mutex reaches code that re-acquires the "
     "same mutex at some call depth; with a non-recursive mutex this "
     "deadlocks the calling thread against itself.",
     kIpc},
    {"lock-callback", Severity::kError,
     "A user callback is invoked while a lock is held; the callback can "
     "re-enter the component and deadlock.",
     kPasses},
    {"lock-order", Severity::kError,
     "Two mutexes are acquired in opposite orders at different sites "
     "(ABBA); pick one global order.",
     kPasses},
    {"lock-virtual", Severity::kError,
     "A virtual method is called while a lock is held; dynamic dispatch "
     "can land in user code that re-enters the component.",
     kPasses},
    {"real-sleep", Severity::kError,
     "Simulation code sleeps in real time; delays must be modeled as "
     "simulated events.",
     kDeterminism},
    {"shared-state", Severity::kNote,
     "A member field or global is written without a guard by code "
     "reachable from sim::Engine::run. Inventory for the engine-sharding "
     "refactor (ROADMAP 1), not a defect today: the engine is currently "
     "single-threaded.",
     kIpc},
    {"span-balance", Severity::kError,
     "A trace span begun in a function is not closed on every path "
     "through it (early return leaks the span).",
     kPasses},
    {"unordered-iteration", Severity::kError,
     "Iteration order of a hash container can feed event ordering; "
     "iterate util::sorted_keys() or use an ordered container.",
     kDeterminism},
    {"unseeded-random", Severity::kError,
     "Nondeterministic randomness in simulation code; draw from a seeded "
     "sim::RngStream.",
     kDeterminism},
    {"wall-clock", Severity::kError,
     "Wall-clock time in simulation code breaks determinism; use "
     "sim::Engine::now().",
     kDeterminism},
};

}  // namespace

const RuleMeta* find_rule_meta(const std::string& id) {
  for (const RuleMeta& meta : kRules) {
    if (id == meta.id) return &meta;
  }
  return nullptr;
}

Severity rule_severity(const std::string& id) {
  const RuleMeta* meta = find_rule_meta(id);
  return meta == nullptr ? Severity::kError : meta->severity;
}

const char* severity_name(Severity severity) {
  switch (severity) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "error";
}

}  // namespace flotilla::analyze
