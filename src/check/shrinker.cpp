#include "check/shrinker.hpp"

#include <algorithm>
#include <cstddef>
#include <vector>

namespace flotilla::check {

namespace {

// Clamp per-backend node assignments and partition counts to a shrunken
// cluster; explicit assignments become equal shares so the pilot's split
// logic redistributes whatever is left.
void rescale_backends(ScenarioSpec& spec) {
  const int per_backend =
      std::max(1, spec.nodes / static_cast<int>(spec.backends.size()));
  for (auto& b : spec.backends) {
    b.nodes = 0;  // equal share of the shrunken cluster
    b.partitions = std::min(b.partitions, per_backend);
    if (b.partitions < 1) b.partitions = 1;
  }
}

// Candidate simplifications in reduction-priority order: tasks, nodes,
// faults, backend mix, then scheduler/workload knobs. Every candidate is
// strictly simpler than `spec`, so greedy adoption terminates.
std::vector<ScenarioSpec> candidates(const ScenarioSpec& spec) {
  std::vector<ScenarioSpec> out;
  const auto push = [&out](ScenarioSpec next) { out.push_back(std::move(next)); };

  if (spec.tasks > 0) {
    ScenarioSpec next = spec;
    next.tasks = spec.tasks / 2;
    push(next);
    if (spec.tasks <= 8 && spec.tasks > 1) {
      next = spec;
      next.tasks = spec.tasks - 1;
      push(next);
    }
  }

  const int min_nodes = static_cast<int>(spec.backends.size());
  if (spec.nodes > min_nodes) {
    ScenarioSpec next = spec;
    next.nodes = std::max(min_nodes, spec.nodes / 2);
    rescale_backends(next);
    push(next);
    if (spec.nodes <= min_nodes + 4) {
      next = spec;
      next.nodes = spec.nodes - 1;
      rescale_backends(next);
      push(next);
    }
  }

  if (!spec.faults.empty()) {
    ScenarioSpec next = spec;
    next.faults.clear();
    push(next);
    if (spec.faults.size() > 1) {
      for (std::size_t i = 0; i < spec.faults.size(); ++i) {
        next = spec;
        next.faults.erase(next.faults.begin() +
                          static_cast<std::ptrdiff_t>(i));
        push(next);
      }
    }
  }

  if (spec.backends.size() > 1) {
    for (std::size_t i = 0; i < spec.backends.size(); ++i) {
      ScenarioSpec next = spec;
      next.backends.erase(next.backends.begin() +
                          static_cast<std::ptrdiff_t>(i));
      rescale_backends(next);
      // Faults targeting the dropped backend make no sense anymore.
      const auto& dropped = spec.backends[i].type;
      next.faults.erase(
          std::remove_if(next.faults.begin(), next.faults.end(),
                         [&dropped](const FaultSpec& f) {
                           return f.kind == FaultSpec::Kind::kCrash &&
                                  f.backend == dropped;
                         }),
          next.faults.end());
      push(next);
    }
  }

  for (std::size_t i = 0; i < spec.backends.size(); ++i) {
    if (spec.backends[i].partitions > 1) {
      ScenarioSpec next = spec;
      next.backends[i].partitions = 1;
      push(next);
    }
    if (spec.backends[i].flux_backfill_depth != 64) {
      ScenarioSpec next = spec;
      next.backends[i].flux_backfill_depth = 64;
      push(next);
    }
  }

  if (spec.workload != "null") {
    ScenarioSpec next = spec;
    next.workload = "null";
    push(next);
  }
  if (spec.duration != 0.0) {
    ScenarioSpec next = spec;
    next.duration = 0.0;
    push(next);
  }
  if (spec.cores != 1) {
    ScenarioSpec next = spec;
    next.cores = 1;
    push(next);
  }
  if (spec.gpus != 0) {
    ScenarioSpec next = spec;
    next.gpus = 0;
    push(next);
  }
  if (spec.fail_probability != 0.0) {
    ScenarioSpec next = spec;
    next.fail_probability = 0.0;
    push(next);
  }
  if (spec.max_retries != 0) {
    ScenarioSpec next = spec;
    next.max_retries = 0;
    push(next);
  }
  if (spec.router != "static") {
    ScenarioSpec next = spec;
    next.router = "static";
    push(next);
  }
  if (spec.placement != "first-fit") {
    ScenarioSpec next = spec;
    next.placement = "first-fit";
    push(next);
  }
  if (spec.dragon_queue != "fifo") {
    ScenarioSpec next = spec;
    next.dragon_queue = "fifo";
    push(next);
  }
  // Ingress reductions: drop the arrival process entirely (back to the
  // classic one-shot submit), then halve the client population, simplify
  // the arrival process to plain Poisson at the default rate, and relax
  // admission toward an effectively unbounded reject queue.
  if (spec.clients > 0) {
    ScenarioSpec next = spec;
    next.clients = 0;
    next.arrival = "poisson";
    next.arrival_param = 0.0;
    next.admit = "reject";
    next.admit_capacity = 256;
    push(next);
    if (spec.clients > 1) {
      next = spec;
      next.clients = std::max(1, spec.clients / 2);
      push(next);
    }
    if (spec.arrival != "poisson" || spec.arrival_param != 0.0) {
      next = spec;
      next.arrival = "poisson";
      next.arrival_param = 0.0;
      push(next);
    }
    if (spec.admit != "reject") {
      next = spec;
      next.admit = "reject";
      push(next);
    }
    if (spec.admit_capacity != 256) {
      next = spec;
      next.admit_capacity = 256;
      push(next);
    }
  }
  // Crash-point reductions. Dropping the crash entirely (crash_at = 0)
  // disables the recovery oracle, so recovery-only failures survive it —
  // the shrinker keeps the crash when the bug needs one. Halving moves
  // the crash earlier, toward a shorter journal prefix.
  if (spec.crash_at > 0) {
    ScenarioSpec next = spec;
    next.crash_at = 0;
    next.recover = true;
    push(next);
    if (spec.crash_at > 1) {
      next = spec;
      next.crash_at = spec.crash_at / 2;
      push(next);
    }
  }

  return out;
}

}  // namespace

ShrinkResult shrink(const ScenarioSpec& failing,
                    const FailurePredicate& still_fails,
                    int max_evaluations) {
  ShrinkResult result;
  result.spec = failing;
  bool progressed = true;
  while (progressed && result.evaluations < max_evaluations) {
    progressed = false;
    for (auto& candidate : candidates(result.spec)) {
      if (result.evaluations >= max_evaluations) break;
      ++result.evaluations;
      if (still_fails(candidate)) {
        result.spec = std::move(candidate);
        progressed = true;
        break;  // restart from the highest-priority reduction
      }
    }
  }
  return result;
}

}  // namespace flotilla::check
