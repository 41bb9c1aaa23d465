// ScenarioSpec: the complete, serializable description of one fuzz run.
//
// FoundationDB-style simulation testing rests on one property: a failing
// run must be reproducible from a short, copy-pasteable artifact. Every
// knob the generator can turn — cluster size, backend mix, workload shape,
// scheduler policies, fault injections — lives in this struct, and
// `to_string()`/`parse()` round-trip it through a single-line
// `key=value;key=value` string so `flotilla-fuzz --replay '<spec>'`
// re-executes the exact scenario bit-for-bit (see docs/correctness.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/pilot.hpp"

namespace flotilla::check {

// One mid-run fault injection, timed relative to pilot readiness.
struct FaultSpec {
  enum class Kind {
    kCrash,        // crash instance/runtime `index` of backend `backend`
    kCancelStorm,  // cancel `count` tasks spread across the submitted set
  };

  Kind kind = Kind::kCrash;
  double time = 1.0;    // virtual seconds after the pilot reports ready
  std::string backend;  // kCrash: "flux" | "dragon" | "prrte"
  int index = 0;        // kCrash: which instance/runtime
  int count = 0;        // kCancelStorm: how many tasks to cancel
};

struct ScenarioSpec {
  std::uint64_t seed = 42;
  int nodes = 4;

  // Engine shape for the storm-determinism oracle (docs/sharding.md).
  // The stack itself always runs on the single-shard engine; when
  // shards > 1 or threads > 1, run_with_oracles() also drains the storm
  // kernel on max(shards, threads) shards with `threads` workers and
  // demands it match the serial reference. Both lie in [1, 64].
  int shards = 1;
  int threads = 1;

  std::vector<core::BackendSpec> backends{{"srun"}};

  // Workload shape: "null" | "sleep" | "hetero" | "impeccable".
  std::string workload = "null";
  int tasks = 64;
  double duration = 0.0;   // sleep payload / heterogeneous base duration
  std::int64_t cores = 1;  // per-task cores (sleep workload)
  std::int64_t gpus = 0;   // per-task GPUs (sleep workload)
  double fail_probability = 0.0;
  int max_retries = 0;

  // Scheduler knobs.
  std::string router = "static";        // "static" | "adaptive"
  std::string placement = "first-fit";  // "first-fit"|"best-fit"|"gpu-pack"
  std::string dragon_queue = "fifo";    // "fifo" | "priority"

  // Service-mode ingress dimensions (docs/ingress.md). clients == 0 keeps
  // the classic path (one tmgr.submit of the whole workload up front);
  // clients > 0 routes the same `tasks` budget through IngressService as
  // an arrival process with admission control. `arrival` is the process
  // kind ("poisson" | "diurnal" | "bursty" | "closed"); arrival_param is
  // the open-loop rate [tasks/s] or closed-loop think time [s], 0 = use
  // the ingress defaults. `admit` is the backpressure policy ("reject" |
  // "defer") with a bounded intake queue of admit_capacity entries.
  int clients = 0;
  std::string arrival = "poisson";
  double arrival_param = 0.0;
  std::string admit = "reject";
  int admit_capacity = 256;

  std::vector<FaultSpec> faults;

  // Crash/recovery oracle dimensions (docs/recovery.md). crash_at > 0
  // kills the controller once its durable journal holds that many records;
  // run_with_oracles() then recovers by journal replay and demands the
  // recovered run be byte-equivalent to the uninterrupted one. recover =
  // false downgrades the oracle to "the surviving journal prefix parses
  // cleanly" (survive-only, PR 3 semantics). These are oracle dimensions,
  // not run dimensions: the journal header records the spec with both
  // reset to defaults, so every crash point of a scenario shares one
  // uninterrupted reference journal.
  std::uint64_t crash_at = 0;
  bool recover = true;

  // Deliberate defect injection, used to prove the checkers catch real
  // bugs: "none" | "overcommit" (a model of a double-booking scheduler
  // that claims cores behind every placer's back and never releases) |
  // "state-loss" (a recovery path that forgets the pending fault schedule
  // — only observable through the crash/recover oracle).
  std::string bug = "none";

  // Single-line `key=value;...` form; parse(to_string(s)) == s.
  std::string to_string() const;
  static ScenarioSpec parse(const std::string& text);
};

}  // namespace flotilla::check
