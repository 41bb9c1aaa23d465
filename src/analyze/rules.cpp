#include "analyze/rules.hpp"

namespace flotilla::analyze {

namespace {

constexpr const char* kPasses = "pass-catalogue";
constexpr const char* kDeterminism = "determinism-rules";

const RuleMeta kRules[] = {
    {"arch-config",
     "analyze/layers.conf is missing, unreadable, or malformed; the layer "
     "DAG cannot be checked without it.",
     kPasses},
    {"arch-cycle",
     "Two headers include each other (directly or transitively); include "
     "cycles make layering meaningless and break incremental builds.",
     kPasses},
    {"arch-layering",
     "An include crosses the layer DAG declared in analyze/layers.conf in "
     "a forbidden direction.",
     kPasses},
    {"arch-unmapped",
     "A source file is not covered by any layer prefix in "
     "analyze/layers.conf, so no layering rule applies to it.",
     kPasses},
    {"hardware-concurrency",
     "std::thread::hardware_concurrency() makes behavior depend on the "
     "host machine; worker counts must come from configuration.",
     kDeterminism},
    {"real-sleep",
     "Simulation code sleeps in real time; delays must be modeled as "
     "simulated events.",
     kDeterminism},
    {"span-balance",
     "A trace span begun in a function is not closed on every path "
     "through it (early return leaks the span).",
     kPasses},
    {"unordered-iteration",
     "Iteration order of a hash container can feed event ordering; "
     "iterate util::sorted_keys() or use an ordered container.",
     kDeterminism},
    {"unseeded-random",
     "Nondeterministic randomness in simulation code; draw from a seeded "
     "sim::RngStream.",
     kDeterminism},
    {"wall-clock",
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

}  // namespace flotilla::analyze
