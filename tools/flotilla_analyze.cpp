// flotilla-analyze: multi-pass static analysis over the flotilla tree.
//
// Front-end over src/analyze/ (lexer + pass registry + driver); see
// docs/correctness.md, "Static analysis". Passes:
//
//   architecture   include graph vs the declared layer DAG in
//                  analyze/layers.conf (arch-layering, arch-cycle,
//                  arch-unmapped, arch-config)
//   spans          obs::Tracer begin/end pairs leaked by early returns
//                  (span-balance)
//   determinism    the five determinism rules, on the token stream, over
//                  all of src/ (wall-clock, unseeded-random,
//                  hardware-concurrency, real-sleep, unordered-iteration)
//
// Findings can be waived in place (// FLOTILLA_LINT_ALLOW(rule): reason);
// CI fails on any other finding. Output is plain text or SARIF 2.1.0,
// byte-identical for the same tree.
//
// Run from the repo root so display paths are repo-relative. Exit codes:
// 0 clean, 1 findings, 2 usage/IO error.

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analyze/determinism.hpp"
#include "analyze/driver.hpp"
#include "analyze/layers.hpp"
#include "analyze/spans.hpp"

namespace {

void usage(std::ostream& os) {
  os << "usage: flotilla-analyze [options] [<path>...]\n"
        "  <path>...            files or directories to scan "
        "(default: src tools)\n"
        "  --layers <file>      layer DAG config "
        "(default: analyze/layers.conf)\n"
        "  --sarif              emit SARIF 2.1.0 instead of text "
        "findings\n"
        "  --output <file>      write the report to <file> instead of "
        "stdout\n"
        "  --strip-prefix <p>   strip <p> from display paths (fixture "
        "trees)\n"
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
    } else if (arg == "--sarif") {
      options.sarif = true;
    } else if (arg == "--output") {
      options.output_path = value("--output");
    } else if (arg == "--strip-prefix") {
      options.strip_prefix = value("--strip-prefix");
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
  registry.add(std::make_unique<fa::SpanBalancePass>());
  registry.add(std::make_unique<fa::DeterminismPass>());

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
