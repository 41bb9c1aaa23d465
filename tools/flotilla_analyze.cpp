// flotilla-analyze: multi-pass static analysis over the flotilla tree.
//
// Front-end over src/analyze/ (lexer + pass registry + driver); see
// docs/correctness.md, "Static analysis". Passes:
//
//   architecture   include graph vs the declared layer DAG in
//                  analyze/layers.conf (arch-layering, arch-cycle,
//                  arch-unmapped, arch-config)
//   locks          user callbacks / virtual dispatch invoked under a held
//                  lock, and inconsistent mutex acquisition-order pairs
//                  (lock-callback, lock-virtual, lock-order)
//   spans          obs::Tracer begin/end pairs leaked by early returns
//                  (span-balance)
//   determinism    the five determinism rules, on the token stream
//                  (wall-clock, unseeded-random, hardware-concurrency,
//                  real-sleep, unordered-iteration)
//   ipc-locks      interprocedural lock discipline over the call graph:
//                  self-deadlock and blocking-under-lock at any call
//                  depth (ipc-self-deadlock, ipc-blocking-under-lock)
//   ipc-determinism  wall-clock/unseeded-random taint flowing through
//                  function returns into trace spans, counters, or the
//                  trace fingerprint (ipc-determinism)
//
// Findings can be waived in place (// FLOTILLA_LINT_ALLOW(rule): reason)
// or grandfathered in a committed baseline (analyze/baseline.txt); CI
// fails only on findings that are neither. Output is plain text or SARIF
// 2.1.0, byte-identical for the same tree and baseline.
//
// Run from the repo root so display paths are repo-relative (that is what
// the committed baseline records). Exit codes: 0 clean, 1 fresh findings,
// 2 usage/IO error.

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analyze/determinism.hpp"
#include "analyze/driver.hpp"
#include "analyze/ipc.hpp"
#include "analyze/layers.hpp"
#include "analyze/locks.hpp"
#include "analyze/spans.hpp"

namespace {

void usage(std::ostream& os) {
  os << "usage: flotilla-analyze [options] [<path>...]\n"
        "  <path>...            files or directories to scan "
        "(default: src tools)\n"
        "  --layers <file>      layer DAG config "
        "(default: analyze/layers.conf)\n"
        "  --baseline <file>    grandfathered findings; only new ones "
        "fail\n"
        "  --write-baseline     regenerate --baseline from this run and "
        "exit\n"
        "  --sarif              emit SARIF 2.1.0 instead of text "
        "findings\n"
        "  --output <file>      write the report to <file> instead of "
        "stdout\n"
        "  --strip-prefix <p>   strip <p> from display paths (fixture "
        "trees)\n"
        "  --jobs <n>           file-loading threads (default: one per "
        "hardware thread); output is identical for any value\n"
        "  --list-rules         print every rule id and exit\n";
}

}  // namespace

int main(int argc, char** argv) {
  namespace fa = flotilla::analyze;
  fa::DriverOptions options;
  std::string layers_path = "analyze/layers.conf";
  bool list_rules = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "flotilla-analyze: error: " << flag
                  << " needs an argument\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--layers") {
      layers_path = value("--layers");
    } else if (arg == "--baseline") {
      options.baseline_path = value("--baseline");
    } else if (arg == "--write-baseline") {
      options.write_baseline = true;
    } else if (arg == "--sarif") {
      options.sarif = true;
    } else if (arg == "--output") {
      options.output_path = value("--output");
    } else if (arg == "--strip-prefix") {
      options.strip_prefix = value("--strip-prefix");
    } else if (arg == "--jobs") {
      const std::string n = value("--jobs");
      char* end = nullptr;
      const unsigned long parsed = std::strtoul(n.c_str(), &end, 10);
      if (end == n.c_str() || *end != '\0' || parsed == 0) {
        std::cerr << "flotilla-analyze: error: --jobs needs a positive "
                     "integer\n";
        return 2;
      }
      options.jobs = static_cast<unsigned>(parsed);
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "-h" || arg == "--help") {
      usage(std::cout);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      usage(std::cerr);
      return 2;
    } else {
      options.roots.push_back(arg);
    }
  }
  if (options.roots.empty()) options.roots = {"src", "tools"};

  fa::LayersConfig layers;
  std::string layers_error;
  if (!fa::load_layers(layers_path, &layers, &layers_error)) {
    layers.path = layers_path;
  } else {
    layers_error.clear();
  }

  fa::PassRegistry registry;
  registry.add(std::make_unique<fa::ArchitecturePass>(std::move(layers),
                                                      layers_error));
  registry.add(std::make_unique<fa::LockDisciplinePass>());
  registry.add(std::make_unique<fa::SpanBalancePass>());
  registry.add(std::make_unique<fa::DeterminismPass>());
  registry.add(std::make_unique<fa::IpcLocksPass>());
  registry.add(std::make_unique<fa::IpcDeterminismPass>());

  if (list_rules) {
    std::vector<std::string> rules;
    for (const auto& pass : registry.passes()) {
      for (std::string& rule : pass->rules()) rules.push_back(std::move(rule));
    }
    std::sort(rules.begin(), rules.end());
    for (const std::string& rule : rules) std::cout << rule << "\n";
    return 0;
  }

  return fa::run_driver(options, registry, std::cout, std::cerr);
}
