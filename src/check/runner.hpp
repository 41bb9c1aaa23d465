// Scenario runner: executes one ScenarioSpec end-to-end under the
// InvariantMonitor and reports what happened.
//
// One run = one Session + one Pilot (built from the spec's backend mix) +
// one TaskManager submitting the spec's workload, with the spec's fault
// injections scheduled relative to pilot readiness. The run drains the
// event queue under an event budget (a livelock is itself a violation),
// audits the end state, and fingerprints the full trace so two runs of the
// same spec can be compared bit-for-bit (the determinism oracle).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "check/spec.hpp"
#include "journal/recovery.hpp"

namespace flotilla::check {

struct RunOptions {
  // 0 = derive from the task count; exceeding the budget is a violation.
  std::uint64_t max_events = 0;
  // FreeResourceIndex coherence check cadence (0 disables).
  int coherence_stride = 512;

  // Durable journal / crash / recovery (docs/recovery.md).
  // Record a journal; the bytes land in RunResult::journal.
  bool journal = false;
  // > 0: simulate a controller crash once the journal holds this many
  // records — the run stops dead (no end record, no end-state audit) and
  // RunResult::crashed is set. Implies journaling.
  std::uint64_t crash_at = 0;
  // Recovery replay: re-execute the journaled run from its header spec,
  // validating every emitted record against this journal prefix. A
  // mismatch or an incomplete replay is a "recovery-divergence" violation.
  // Implies journaling (the recovered journal grows past the prefix into
  // the full uninterrupted byte stream).
  const journal::RecoveryManager* recovery = nullptr;
};

struct RunResult {
  bool ready = false;       // pilot reported ready
  bool crashed = false;     // stopped at an injected crash point
  std::uint64_t events = 0;
  sim::Time makespan = 0.0;
  std::size_t done = 0;
  std::size_t failed = 0;
  std::size_t canceled = 0;
  // FNV-1a over the trace CSV plus every task's final record; identical
  // across runs of the same spec iff the simulation is deterministic.
  std::uint64_t fingerprint = 0;
  // Journal bytes (when journaling was requested).
  std::string journal;
  // TaskBackend::restore_summary() per backend at drain, in registration
  // order (journaled runs only; empty on crashed runs).
  std::vector<std::string> backend_summaries;
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }
};

RunResult run_scenario(const ScenarioSpec& spec, const RunOptions& opts = {});

// Crash→recover protocol for one crash point (docs/recovery.md):
// re-runs `spec` to the crash (spec.crash_at journal records), chops a
// seeded torn tail off the surviving bytes, recovers by journal replay,
// and compares the recovered run byte-for-byte against `reference` — a
// journaled uninterrupted run of the same spec (opts.journal = true).
// With spec.recover == false only the surviving prefix's integrity is
// checked. Returns the violations found (empty = recovery is exact).
std::vector<Violation> check_recovery(const ScenarioSpec& spec,
                                      const RunResult& reference,
                                      const RunOptions& opts = {});

// Runs the spec twice and appends a "determinism" violation to the first
// run's result when the fingerprints diverge. Specs with shards > 1 or
// threads > 1 additionally run the storm kernel on that engine shape
// against its serial reference ("storm-determinism"); specs with
// crash_at > 0 run the crash/recover oracle (check_recovery) against the
// first run's journal.
RunResult run_with_oracles(const ScenarioSpec& spec,
                           const RunOptions& opts = {});

}  // namespace flotilla::check
