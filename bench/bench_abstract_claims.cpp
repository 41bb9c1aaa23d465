// The paper's abstract, verified end to end in one binary.
//
//   "RP+Flux sustains up to 930 tasks/s, and RP+Flux+Dragon exceeds 1,500
//    tasks/s with over 99.6% utilization. In contrast, srun peaks at 152
//    tasks/s and degrades with scale, with utilization below 50%. For
//    IMPECCABLE.v2 ... RP+Flux reduces makespan by 30-60% relative to
//    srun/Slurm and increases throughput more than four times on up to
//    1,024 [nodes]."
//
// Runs the minimal set of experiments behind each claim and prints a
// verdict per claim, judged against the declared claims below.
// FLOTILLA_BENCH_QUICK=1 downsizes the IMPECCABLE runs.
#include <cstdlib>
#include <iostream>
#include <limits>

#include "harness.hpp"
#include "workloads/impeccable.hpp"

using namespace flotilla;
using namespace flotilla::bench;

namespace {

ExperimentResult null_run(const std::string& backend, int nodes,
                          int partitions) {
  ExperimentConfig config;
  config.label = backend;
  config.nodes = nodes;
  if (backend == "flux") {
    config.pilot = {.nodes = nodes,
                    .backends = {{.type = "flux", .partitions = partitions}}};
  } else if (backend == "hybrid") {
    config.pilot = {
        .nodes = nodes,
        .backends = {
            {.type = "flux", .partitions = partitions, .nodes = nodes / 2},
            {.type = "dragon", .nodes = nodes - nodes / 2}}};
    config.tasks =
        workloads::mixed_tasks(workloads::paper_task_count(nodes), 0.0);
    return run_experiment(std::move(config));
  } else {
    config.pilot = {.nodes = nodes, .backends = {{backend}}};
  }
  config.tasks =
      workloads::uniform_tasks(workloads::paper_task_count(nodes), 0.0);
  return run_experiment(std::move(config));
}

struct Campaign {
  double makespan = 0.0;
  double peak_start_rate = 0.0;
};

Campaign impeccable_run(const std::string& backend, int nodes) {
  core::Session session(platform::frontier_spec(), nodes, 42);
  core::PilotManager pmgr(session);
  core::PilotDescription desc;
  desc.nodes = nodes;
  desc.backends = backend == "flux"
                      ? std::vector<core::BackendSpec>{{"flux", 1}}
                      : std::vector<core::BackendSpec>{{backend}};
  auto& pilot = pmgr.submit(std::move(desc));
  pilot.launch([](bool, const std::string&) {});
  session.run(600.0);
  core::TaskManager tmgr(session, pilot.agent());
  tmgr.on_complete([](const core::Task&) {});
  core::Workflow workflow(tmgr);
  workloads::build_impeccable(workflow, workloads::impeccable_plan(nodes));
  workflow.start();
  session.run();
  const auto& metrics = pilot.agent().profiler().metrics();
  return {metrics.makespan(), metrics.peak_throughput()};
}

constexpr double kInf = std::numeric_limits<double>::infinity();

// A claim as the paper states it, and the range [lo, hi] a measurement
// may fall in and still reproduce it.
struct Claim {
  const char* name;
  const char* paper;
  double lo;
  double hi;
};

// Every verdict is judged against these claims, and nowhere else: the
// paper's number and a stated tolerance. A throughput the paper reports
// as one measured number gets +-5%; a bound or range the paper states is
// taken as stated, except that the srun utilization bound allows half a
// point for rounding. A measurement outside its range DEVIATES; a range
// is never widened to keep a row REPRODUCED (EXPERIMENTS.md, "Known
// deviations").
const Claim kSrunPeak{"srun peak throughput (1 node)", "152 t/s", 152 * 0.95,
                      152 * 1.05};
const Claim kSrunDegrades{"srun degrades with scale", "61 t/s @4n",
                          61 * 0.95, 61 * 1.05};
const Claim kSrunUtilization{"srun utilization below 50%", "<= 50%", -kInf,
                             0.50 + 0.005};
const Claim kFluxPeak{"RP+Flux sustains up to ~930 t/s", "930 t/s",
                      930 * 0.95, 930 * 1.05};
const Claim kHybridPeak{"RP+Flux+Dragon exceeds ~1,500 t/s", "1,547 t/s",
                        1547 * 0.95, 1547 * 1.05};
const Claim kHybridUtilization{"hybrid utilization over 99.6%", ">= 99.6%",
                               0.996, kInf};
const Claim kImpeccableReduction{"IMPECCABLE makespan reduction", "30-60%",
                                 0.30, 0.60};
const Claim kImpeccableStartRate{"IMPECCABLE start-rate gain", "> 4x", 4.0,
                                 kInf};

// One table row: `claim`, its measurement as printed, and the verdict on
// `value`.
void judge(Table& table, const Claim& claim, const std::string& measured,
           double value, const std::string& name_suffix = "") {
  const bool ok = value >= claim.lo && value <= claim.hi;
  table.add_row({claim.name + name_suffix, claim.paper, measured,
                 ok ? "REPRODUCED" : "DEVIATES"});
}

}  // namespace

int main() {
  const bool quick = std::getenv("FLOTILLA_BENCH_QUICK") != nullptr;
  std::cout << "=== Abstract claims, verified ===\n";
  Table table({"claim", "paper", "measured", "verdict"});

  // srun: peaks at 152 tasks/s on one node and degrades with scale,
  // utilization below 50%.
  const auto srun1 = null_run("srun", 1, 1);
  const auto srun4 = null_run("srun", 4, 1);
  judge(table, kSrunPeak, fixed(srun1.peak_tput) + " t/s", srun1.peak_tput);
  judge(table, kSrunDegrades, fixed(srun4.window_tput) + " t/s",
        srun4.window_tput);
  {
    ExperimentConfig config;
    config.label = "srun_util";
    config.nodes = 4;
    config.pilot = {.nodes = 4, .backends = {{"srun"}}};
    config.tasks = workloads::uniform_tasks(896, 180.0);
    const auto util = run_experiment(std::move(config));
    judge(table, kSrunUtilization, percent(util.core_util), util.core_util);
  }

  // flux_n: up to 930 tasks/s.
  const auto fluxn = null_run("flux", 64, 64);
  judge(table, kFluxPeak, fixed(fluxn.peak_tput) + " t/s peak",
        fluxn.peak_tput);

  // hybrid: >1,500 tasks/s at >= 99.6% utilization.
  const auto hybrid = null_run("hybrid", 64, 16);
  judge(table, kHybridPeak, fixed(hybrid.peak_tput) + " t/s peak",
        hybrid.peak_tput);
  {
    ExperimentConfig config;
    config.label = "hybrid_util";
    config.nodes = 16;
    config.pilot = {
        .nodes = 16,
        .backends = {{.type = "flux", .partitions = 4, .nodes = 8},
                     {.type = "dragon", .nodes = 8}}};
    config.tasks = workloads::mixed_tasks(workloads::paper_task_count(16),
                                          360.0);
    const auto util = run_experiment(std::move(config));
    judge(table, kHybridUtilization, percent(util.core_util),
          util.core_util);
  }

  // IMPECCABLE: flux reduces makespan 30-60% vs srun; throughput >4x.
  const int nodes = quick ? 256 : 1024;
  const auto camp_srun = impeccable_run("srun", nodes);
  const auto camp_flux = impeccable_run("flux", nodes);
  const double reduction = 1.0 - camp_flux.makespan / camp_srun.makespan;
  judge(table, kImpeccableReduction, percent(reduction), reduction,
        " @" + std::to_string(nodes) + "n");
  const double tput_gain =
      camp_flux.peak_start_rate / std::max(1.0, camp_srun.peak_start_rate);
  judge(table, kImpeccableStartRate, fixed(tput_gain, 1) + "x", tput_gain);

  table.print();
  table.write_csv("abstract_claims.csv");
  return 0;
}
