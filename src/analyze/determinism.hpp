// Determinism rules on the token stream (docs/correctness.md).
//
// Rules (unchanged ids and messages, so existing waivers keep working):
//   wall-clock            host clocks in simulation code
//   unseeded-random       rand()/random_device/drand48()/...
//   hardware-concurrency  std::thread::hardware_concurrency()
//   real-sleep            sleep_for/usleep/nanosleep/...
//   unordered-iteration   range-for over a hash container declared in the
//                         file or its paired header
//
// Token-stream matching removes the residual false-positive classes of the
// regex scanner: identifiers are matched whole (never inside a longer
// name), and the call-form rules look at real neighbor tokens instead of
// guessing at whitespace.
#pragma once

#include <string>

#include "analyze/pass.hpp"

namespace flotilla::analyze {

// Simulation-code scope: which files the determinism rules apply to.
// src/{sim,core,slurm,flux,dragon,prrte,platform,workloads,sched,check,
// obs,analyze,journal,ingress,analytics}/; src/util/ and tools/ are out of
// scope. Paths are matched '/'-normalized.
bool determinism_in_scope(const std::string& path);

// Classifies toks[i] as an interprocedural taint source: returns
// "wall-clock" or "unseeded-random" when the token (with the same
// call-form requirements the rules above apply) reads host time or
// unseeded entropy, nullptr otherwise. Used by the facts collector
// (analyze/facts.hpp) so ipc-determinism shares one source table with
// this pass.
const char* nondet_source_rule(const std::vector<Token>& toks,
                               std::size_t i);

class DeterminismPass : public Pass {
 public:
  std::string_view name() const override { return "determinism"; }
  std::vector<std::string> rules() const override;
  void run(const AnalysisInput& input,
           std::vector<Finding>* findings) const override;
};

}  // namespace flotilla::analyze
