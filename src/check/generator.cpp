#include "check/generator.hpp"

#include <algorithm>

namespace flotilla::check {

namespace {

constexpr std::int64_t kCoresPerNode = 56;  // frontier_spec()
constexpr std::int64_t kGpusPerNode = 8;

int backend_node_count(const ScenarioSpec& spec, const core::BackendSpec& b) {
  if (b.nodes > 0) return b.nodes;
  // Conservative model of Pilot::build_backends' equal-share split: the
  // floor share is a lower bound on what any flexible backend receives.
  int fixed = 0;
  int flexible = 0;
  for (const auto& other : spec.backends) {
    if (other.nodes > 0) {
      fixed += other.nodes;
    } else {
      ++flexible;
    }
  }
  const int pool = std::max(0, spec.nodes - fixed);
  return std::max(1, flexible > 0 ? pool / flexible : pool);
}

bool crashable(const std::string& type) {
  return type == "flux" || type == "dragon" || type == "prrte";
}

}  // namespace

UnitCaps unit_caps(const ScenarioSpec& spec) {
  UnitCaps caps;
  caps.cores = kCoresPerNode;
  caps.gpus = kGpusPerNode;
  int min_unit = spec.nodes > 0 ? spec.nodes : 1;
  for (const auto& b : spec.backends) {
    const int nodes = backend_node_count(spec, b);
    // Flux and Dragon split their span into independent partitions; a task
    // cannot span partitions, so the smallest partition bounds the demand.
    int unit = nodes;
    if (b.type == "flux" || b.type == "dragon") {
      unit = std::max(1, nodes / std::max(1, b.partitions));
    }
    min_unit = std::min(min_unit, unit);
  }
  caps.nodes = std::max(1, min_unit);
  return caps;
}

ScenarioSpec generate_scenario(sim::RngStream& rng) {
  return generate_scenario(rng, GeneratorOptions{});
}

ScenarioSpec generate_scenario(sim::RngStream& rng,
                               const GeneratorOptions& options) {
  ScenarioSpec spec;
  spec.seed = rng.next_u64() >> 1;  // headroom for derived stream salts
  spec.backends.clear();

  // Backend mix: the paper's single-runtime configurations plus the two
  // hybrid lanes (Experiment flux+dragon and srun+dragon).
  static const std::vector<std::vector<std::string>> kMixes = {
      {"srun"},           {"flux"},
      {"dragon"},         {"prrte"},
      {"flux", "dragon"}, {"srun", "dragon"}};
  const auto& mix =
      kMixes[static_cast<std::size_t>(rng.uniform_int(0, 5))];

  const int min_nodes = static_cast<int>(mix.size());
  spec.nodes = static_cast<int>(rng.uniform_int(min_nodes, 12));

  // Explicit per-backend node counts so replay and unit_caps are exact.
  int remaining = spec.nodes;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    core::BackendSpec b;
    b.type = mix[i];
    const int left = static_cast<int>(mix.size()) - static_cast<int>(i) - 1;
    b.nodes = (left == 0)
                  ? remaining
                  : static_cast<int>(rng.uniform_int(1, remaining - left));
    remaining -= b.nodes;
    if (b.type == "flux") {
      b.partitions = static_cast<int>(rng.uniform_int(1, std::min(b.nodes, 3)));
      static const int kDepths[] = {1, 2, 8, 64};
      b.flux_backfill_depth = kDepths[rng.uniform_int(0, 3)];
    } else if (b.type == "dragon") {
      b.partitions = static_cast<int>(rng.uniform_int(1, std::min(b.nodes, 2)));
    }
    spec.backends.push_back(std::move(b));
  }

  const auto caps = unit_caps(spec);
  const bool has_dragon =
      std::any_of(spec.backends.begin(), spec.backends.end(),
                  [](const auto& b) { return b.type == "dragon"; });

  // Workload shape. Functions only appear via hetero/impeccable mixtures,
  // and only when Dragon (the sole function executor) is in the mix — the
  // runner's workload builder enforces that using spec.backends.
  const double shape = rng.uniform();
  if (shape < 0.30) {
    spec.workload = "null";
  } else if (shape < 0.60) {
    spec.workload = "sleep";
  } else if (shape < 0.85) {
    spec.workload = "hetero";
  } else {
    spec.workload = "impeccable";
  }

  spec.tasks = static_cast<int>(rng.uniform_int(10, 120));
  spec.duration = spec.workload == "null" ? 0.0 : rng.uniform(0.1, 8.0);

  // Per-task demand (sleep workload), capped to the smallest schedulable
  // unit so no backend is handed an unsatisfiable task.
  const double size = rng.uniform();
  if (size < 0.6) {
    spec.cores = 1;
  } else if (size < 0.9) {
    spec.cores = rng.uniform_int(2, 8);
  } else {
    spec.cores = caps.cores;  // full node
  }
  spec.gpus = rng.bernoulli(0.25) ? rng.uniform_int(1, 4) : 0;

  spec.fail_probability = rng.bernoulli(0.4) ? rng.uniform(0.01, 0.3) : 0.0;
  spec.max_retries = static_cast<int>(rng.uniform_int(0, 2));

  spec.router = rng.bernoulli(0.3) ? "adaptive" : "static";
  const double place = rng.uniform();
  spec.placement =
      place < 0.5 ? "first-fit" : (place < 0.75 ? "best-fit" : "gpu-pack");
  spec.dragon_queue = (has_dragon && rng.bernoulli(0.3)) ? "priority" : "fifo";

  // Mid-run faults: instance crashes (only backends with a crash surface)
  // and cancellation storms.
  std::vector<std::string> crash_targets;
  for (const auto& b : spec.backends) {
    if (crashable(b.type)) crash_targets.push_back(b.type);
  }
  const int fault_count = static_cast<int>(rng.uniform_int(0, 2));
  for (int i = 0; i < fault_count; ++i) {
    FaultSpec fault;
    if (!crash_targets.empty() && rng.bernoulli(0.6)) {
      fault.kind = FaultSpec::Kind::kCrash;
      fault.time = rng.uniform(0.5, 30.0);
      fault.backend = crash_targets[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(crash_targets.size()) -
                                 1))];
      int partitions = 1;
      for (const auto& b : spec.backends) {
        if (b.type == fault.backend) partitions = std::max(1, b.partitions);
      }
      fault.index = static_cast<int>(rng.uniform_int(0, partitions - 1));
    } else {
      fault.kind = FaultSpec::Kind::kCancelStorm;
      fault.time = rng.uniform(0.1, 10.0);
      fault.count = static_cast<int>(rng.uniform_int(1, spec.tasks / 2 + 1));
    }
    spec.faults.push_back(fault);
  }

  // Retired engine-shape draws (the old shards=/threads= keys). The
  // engine has one shard and one thread, so the values are discarded, but
  // the draws stay: dropping them would shift every later draw, and each
  // seed would stop generating the scenario it always did.
  if (rng.bernoulli(0.5)) (void)rng.uniform_int(0, 2);
  if (rng.bernoulli(0.5)) (void)rng.uniform_int(0, 1);

  // Service-mode ingress (docs/ingress.md): about 30% of the scenarios
  // (all of them under force_ingress) route the task budget through
  // IngressService as an arrival process with admission control. The
  // client population spans 1 to 10^6 — open-loop arrivals superpose into
  // one aggregate stream, so a million clients costs O(1) state. Zero
  // admission capacity is deliberately in-range: it must reject every
  // offer while conservation still holds.
  if (options.force_ingress || rng.bernoulli(0.30)) {
    const double kind = rng.uniform();
    if (kind < 0.40) {
      spec.arrival = "poisson";
    } else if (kind < 0.60) {
      spec.arrival = "diurnal";
    } else if (kind < 0.80) {
      spec.arrival = "bursty";
    } else {
      spec.arrival = "closed";
    }
    if (spec.arrival == "closed") {
      spec.clients = static_cast<int>(rng.uniform_int(2, 64));
      spec.arrival_param = rng.uniform(0.02, 0.5);  // think time [s]
    } else {
      static const int kPopulations[] = {1, 16, 1000, 50000, 1000000};
      spec.clients = kPopulations[rng.uniform_int(0, 4)];
      spec.arrival_param = rng.uniform(100.0, 2500.0);  // rate [tasks/s]
    }
    spec.admit = rng.bernoulli(0.5) ? "defer" : "reject";
    const double cap = rng.uniform();
    if (cap < 0.15) {
      spec.admit_capacity = 0;
    } else if (cap < 0.50) {
      spec.admit_capacity = static_cast<int>(rng.uniform_int(1, 16));
    } else {
      spec.admit_capacity = static_cast<int>(rng.uniform_int(32, 512));
    }
  }

  // Crash/recovery (docs/recovery.md): about a third of the scenarios
  // kill the controller mid-campaign at a seeded journal-record index and
  // must recover by replay into a byte-equivalent run. The index range is
  // sized so most crashes land mid-workload; overshooting the run's total
  // record count degenerates into a full-journal validation replay, which
  // is also worth fuzzing. A sliver of survive-only scenarios keeps the
  // prefix-integrity path (recover=0) exercised.
  if (rng.bernoulli(0.35)) {
    spec.crash_at =
        static_cast<std::uint64_t>(rng.uniform_int(1, 8ll * spec.tasks));
    spec.recover = !rng.bernoulli(0.1);
  }

  return spec;
}

}  // namespace flotilla::check
