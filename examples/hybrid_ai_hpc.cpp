// Hybrid AI-HPC campaign: MPI-style executables on Flux and function
// tasks on Dragon, side by side in one pilot.
//
// The paper's headline capability is running MPI-style executables and
// in-memory function tasks together (§3.1). A flux+dragon pilot routes
// executable tasks to Flux and function tasks (a toy "surrogate
// inference" burst) to Dragon's function lane by modality. The example
// exits 1 unless every task landed on the backend its modality asks for.
//
//   $ ./hybrid_ai_hpc
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/flotilla.hpp"

int main() {
  using namespace flotilla;

  core::Session session(platform::frontier_spec(), 16, 11);
  core::PilotManager pmgr(session);
  auto& pilot = pmgr.submit({
      .nodes = 16,
      .backends = {{.type = "flux", .partitions = 2, .nodes = 8},
                   {.type = "dragon", .nodes = 8}},
  });
  pilot.launch([](bool ok, const std::string& error) {
    if (!ok) {
      std::cerr << "pilot failed: " << error << "\n";
      std::exit(1);
    }
  });
  session.run(120.0);

  core::TaskManager tmgr(session, pilot.agent());
  int on_flux = 0, on_dragon = 0;
  tmgr.on_complete([&](const core::Task& task) {
    task.backend() == "flux" ? ++on_flux : ++on_dragon;
  });

  // An ensemble of MPI-style simulations (executables, multi-node)...
  for (int i = 0; i < 8; ++i) {
    core::TaskDescription sim;
    sim.name = "md_ensemble." + std::to_string(i);
    sim.demand.cores = 112;
    sim.demand.cores_per_node = 56;  // tightly coupled across 2 nodes
    sim.demand.gpus = 16;
    sim.duration = 120.0;
    tmgr.submit(std::move(sim));
  }
  // ...interleaved with bursts of surrogate-inference function tasks.
  for (int i = 0; i < 400; ++i) {
    core::TaskDescription infer;
    infer.name = "inference." + std::to_string(i);
    infer.modality = platform::TaskModality::kFunction;
    infer.demand.cores = 1;
    infer.duration = 2.0;
    tmgr.submit(std::move(infer));
  }
  session.run();

  std::cout << "hybrid pilot executed " << on_flux
            << " executable tasks on flux and " << on_dragon
            << " function tasks on dragon (t=" << session.now() << " s)\n";
  return (on_flux == 8 && on_dragon == 400) ? 0 : 1;
}
