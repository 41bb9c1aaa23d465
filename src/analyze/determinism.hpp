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

// Simulation-code scope: which files the determinism rules apply to. All
// of src/ (a path that starts with "src/" or holds a "/src/" component);
// tools/ is out of scope. Paths are matched '/'-normalized.
bool determinism_in_scope(const std::string& path);

class DeterminismPass : public Pass {
 public:
  std::string_view name() const override { return "determinism"; }
  std::vector<std::string> rules() const override;
  void run(const AnalysisInput& input,
           std::vector<Finding>* findings) const override;
};

}  // namespace flotilla::analyze
