// Scheduling-subsystem bench: the placement-bound control-plane hot path.
//
// Part 1 isolates placement at the paper's Frontier scale (9,408 nodes):
// a steady-state churn on a nearly full machine, where every placement
// must find the one freed node. The legacy linear scan walks O(nodes) per
// attempt; the FreeResourceIndex answers in O(log n). The speedup printed
// here is the headline number for the indexed placer.
//
// Part 2 runs a small end-to-end campaign (full RP + flux stack) so the
// snapshot records makespan and simulator events/sec alongside the
// placement rates — the regression surface scripts/bench_snapshot.sh
// captures into BENCH_sched.json.
//
// Machine-readable output: lines starting with "KV " hold key=value pairs.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "harness.hpp"
#include "sched/placer.hpp"
#include "sim/random.hpp"

using namespace flotilla;
using namespace flotilla::bench;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct ChurnResult {
  std::uint64_t attempts = 0;
  double seconds = 0.0;
  double attempts_per_sec() const {
    return seconds > 0 ? static_cast<double>(attempts) / seconds : 0.0;
  }
};

// Fills `nodes` whole nodes, then repeatedly frees one random placement
// and re-places it: the near-full steady state every busy scheduler sits
// in, where first-fit degenerates to "find the single free node".
ChurnResult run_churn(bool use_index, int nodes, int iterations,
                      std::uint64_t seed) {
  platform::Cluster cluster(platform::frontier_spec(), nodes);
  sched::Placer placer(cluster, cluster.all_nodes(),
                       {.use_index = use_index});
  const platform::ResourceDemand whole_node{56, 0, 0};
  std::vector<platform::Placement> held;
  held.reserve(static_cast<std::size_t>(nodes));
  while (auto placement = placer.place(whole_node)) {
    held.push_back(std::move(*placement));
  }
  sim::RngStream rng(seed, "bench_sched");
  const auto fill_attempts = placer.stats().attempts;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iterations; ++i) {
    const auto victim = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(held.size()) - 1));
    placer.release(held[victim]);
    auto placement = placer.place(whole_node);
    if (!placement) std::abort();  // churn must always re-fit
    held[victim] = std::move(*placement);
  }
  ChurnResult result;
  result.seconds = seconds_since(start);
  result.attempts = placer.stats().attempts - fill_attempts;
  return result;
}

struct CampaignResult {
  double makespan = 0.0;
  double events_per_sec = 0.0;
  double avg_tput = 0.0;
};

// End-to-end: null workload through RP + one flux partition, timed on the
// wall clock so simulator events/sec reflects the refactored hot path.
CampaignResult run_campaign(int nodes, int tasks, std::uint64_t seed) {
  core::Session session(platform::frontier_spec(), nodes, seed);
  core::PilotManager pmgr(session);
  auto& pilot = pmgr.submit(
      {.nodes = nodes, .backends = {{.type = "flux", .partitions = 1}}});
  pilot.launch([](bool, const std::string&) {});
  session.run(600.0);
  core::TaskManager tmgr(session, pilot.agent());
  tmgr.on_complete([](const core::Task&) {});
  const auto start = std::chrono::steady_clock::now();
  tmgr.submit(workloads::uniform_tasks(tasks, 0.0));
  session.run();
  const double wall = seconds_since(start);
  const auto& metrics = pilot.agent().profiler().metrics();
  CampaignResult result;
  result.makespan = metrics.makespan();
  result.avg_tput = metrics.avg_throughput();
  result.events_per_sec =
      wall > 0 ? static_cast<double>(session.engine().processed()) / wall
               : 0.0;
  return result;
}

void kv(const std::string& key, double value) {
  std::cout << "KV " << key << "=" << fixed(value, 2) << "\n";
}

}  // namespace

int main() {
  // FLOTILLA_BENCH_QUICK=1 shrinks the churn so CI smoke stays in seconds;
  // the keys emitted are identical either way.
  const bool quick = std::getenv("FLOTILLA_BENCH_QUICK") != nullptr;
  const int frontier_nodes = 9408;  // the paper's Frontier allocation
  const int iterations = quick ? 2000 : 20000;

  std::cout << "=== Scheduling subsystem: placement churn at Frontier "
               "scale ("
            << frontier_nodes << " nodes, " << iterations
            << " place/release cycles) ===\n";
  Table table({"placer", "attempts", "wall [s]", "attempts/s"});
  const auto linear = run_churn(false, frontier_nodes, iterations, 42);
  const auto indexed = run_churn(true, frontier_nodes, iterations, 42);
  table.add_row({"linear scan", std::to_string(linear.attempts),
                 fixed(linear.seconds, 3), fixed(linear.attempts_per_sec())});
  table.add_row({"free index", std::to_string(indexed.attempts),
                 fixed(indexed.seconds, 3),
                 fixed(indexed.attempts_per_sec())});
  table.print();
  const double speedup =
      linear.attempts_per_sec() > 0
          ? indexed.attempts_per_sec() / linear.attempts_per_sec()
          : 0.0;
  std::cout << "  indexed/linear speedup: " << fixed(speedup, 1) << "x\n";

  const int campaign_nodes = quick ? 16 : 64;
  const int campaign_tasks = quick ? 500 : 4000;
  std::cout << "\n=== End-to-end campaign (flux, " << campaign_nodes
            << " nodes, " << campaign_tasks << " null tasks) ===\n";
  const auto campaign = run_campaign(campaign_nodes, campaign_tasks, 42);
  Table summary({"stack", "makespan [s]", "avg tput [t/s]", "sim events/s"});
  summary.add_row({"serial", fixed(campaign.makespan, 1),
                   fixed(campaign.avg_tput),
                   fixed(campaign.events_per_sec, 0)});
  summary.print();

  kv("place_attempts_per_sec_linear", linear.attempts_per_sec());
  kv("place_attempts_per_sec_indexed", indexed.attempts_per_sec());
  kv("placement_speedup", speedup);
  kv("makespan_s", campaign.makespan);
  kv("events_per_sec", campaign.events_per_sec);
  return 0;
}
