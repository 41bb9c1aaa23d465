// Calibration profile: every fitted control-plane latency constant in one
// place, each documented with the paper observation it reproduces.
//
// The rule (DESIGN.md §4.1): control *logic* is real code; only point
// latencies of physical operations (RPC service, fork/exec, bootstrap) are
// parameterized here. Experiment shapes — who wins, where curves saturate or
// cross — must emerge from the simulated queueing, not from these numbers
// directly.
//
// Primary anchors from the paper (§4, Figs 4–8):
//   srun:   152 tasks/s at 1 node, 61 at 4 nodes, declining with scale;
//           hard ceiling of 112 concurrent sruns => 50% utilization on
//           4 nodes (224 cores).
//   flux:   ~28 tasks/s at 1 node, ~300 average at 1024 nodes, peak 744
//           with one instance; up to 930 with multiple instances.
//   dragon: 343/380/204 tasks/s at 4/16/64 nodes (exec tasks), max 622.
//   hybrid: up to 1,547 tasks/s; RP task-management ceiling ~1.55k/s.
//   boot:   ~20 s per Flux instance, ~9 s per Dragon instance (Fig 7),
//           roughly independent of instance size.
#pragma once

#include <cstdint>

namespace flotilla::platform {

// --- Slurm / srun -----------------------------------------------------------
struct SlurmCalibration {
  // slurmctld step-creation RPC handling is serialized in the controller.
  // Fixed cost plus a per-allocation-node term (credential + layout cover
  // the full allocation): fitted to 1/(base + 1*per_node) = 152 tasks/s at
  // 1 node and 1/(base + 4*per_node) = 61 tasks/s at 4 nodes.
  double ctl_step_base = 3.3e-3;       // s
  double ctl_step_per_node = 3.27e-3;  // s per node of the allocation
  // Quadratic term for very large allocations: credential construction and
  // the controller's communication fanout scale worse than linearly. At
  // 1,024 nodes this puts a step create near 12 s, which (serialized over
  // ~1,800 heterogeneous tasks) reproduces the paper's inflated srun
  // makespan at scale (Fig 8b: ~44,000 s vs Flux's ~17,500 s). Negligible
  // (<0.2 ms) at the 1-4 node scales that anchor Fig 5(a).
  double ctl_step_per_node_sq = 1.14e-5;  // s per (allocation node)^2
  // Controller-side cost of retiring a completed step.
  double ctl_complete_cost = 1.0e-3;  // s
  // srun client fork + connect before it contacts the controller. Does not
  // occupy the controller.
  double srun_client_startup = 0.050;  // s
  // slurmstepd fork/exec of the task on each target node.
  double node_task_spawn = 4.0e-3;  // s
  // "Job step creation temporarily disabled, retrying": when a step cannot
  // get resources, srun backs off and retries. This polling (vs Flux's
  // event-driven launch) is what stretches IMPECCABLE wave transitions
  // (Fig 8 a,b).
  double step_retry_initial = 2.0;   // s, first retry delay
  double step_retry_max = 60.0;      // s, backoff cap (Slurm's default)
  double step_retry_factor = 2.0;    // exponential backoff factor
  // Each retry costs the controller another RPC: a fixed part plus a
  // fraction of the step-create work (the placement attempt is re-run), so
  // backlogs of polling sruns congest the launch path — the paper's
  // "frequent dips" in the srun start rate (Fig 8 a,b).
  double ctl_retry_cost = 1.2e-3;   // s
  double ctl_retry_fraction = 0.1;  // of the per-node step-create cost
  // Site ceiling on concurrently active srun invocations (paper: 112).
  std::int64_t concurrency_ceiling = 112;
  // PMI wireup for multi-node (MPI) steps: rank exchange through the
  // controller-mediated PMI path (§3.1: "traditional MPI-based launch
  // mechanisms suffer from high startup latencies, centralized
  // bottlenecks"). Applied once per multi-node step on top of the spawn.
  double mpi_wireup_base = 0.30;      // s
  double mpi_wireup_per_node = 10e-3;  // s per step node
  double jitter_cv = 0.15;  // lognormal CV applied to service times
};

// --- Flux -------------------------------------------------------------------
struct FluxCalibration {
  // Rank-0 broker costs; ingest + schedule serialize on rank 0, which is
  // what caps a single instance near 1/(ingest+sched) ~ 800/s (paper peak
  // 744 tasks/s), degrading under completion-event load.
  double ingest_cost = 0.25e-3;  // s, job-ingest validate + enqueue
  double sched_cost = 1.00e-3;   // s, alloc decision per job
  // fluxion's match cost grows with the instance's resource graph; this
  // term bends single-instance throughput down on very large partitions
  // (Fig 6: at one instance, 256 nodes outperforms 1024 nodes).
  double sched_cost_per_node = 3.3e-6;  // s per partition node per decision
  // Rank-0 share of job-exec coordination. The exec service fans work out
  // to the per-node brokers, so the rank-0 cost amortizes roughly with the
  // square root of the instance size: exec_coord_base / sqrt(nodes) per
  // job. Fit: 1/(sched+coord(4)) ~ 56 tasks/s at 4 nodes (Fig 6, one
  // instance) while 256-node instances still reach ~280 tasks/s.
  double exec_coord_base = 33.0e-3;  // s at one node
  double event_cost = 0.35e-3;   // s, per job-completion event
  // Per-node exec broker fork/exec of the job shim + task; one spawn at a
  // time per node. 1/0.035 = 28.6 tasks/s on one node (paper: ~28).
  double exec_spawn = 35.0e-3;            // s
  int exec_parallel_per_node = 1;         // concurrent spawns per node
  // Instance bootstrap (Fig 7: ~20 s, roughly flat in size).
  double bootstrap_base = 18.5;      // s
  double bootstrap_per_node = 0.03;  // s per node in the instance
  // PMI wireup for multi-node jobs: Flux's broker-native PMI is the fast
  // path for tightly coupled tasks (§3.1).
  double mpi_wireup_base = 0.10;      // s
  double mpi_wireup_per_node = 3e-3;  // s per job node
  double jitter_cv = 0.20;
};

// --- Dragon -----------------------------------------------------------------
struct DragonCalibration {
  // Central dispatcher service time per task; process (exec) tasks go
  // through full process-group setup, function tasks are dispatched to warm
  // workers in-memory. Fit: (1 - infra_share(4)) / dispatch_exec ~ 343
  // tasks/s (Fig 5c at 4 nodes).
  double dispatch_exec = 2.80e-3;  // s
  double dispatch_func = 1.00e-3;  // s
  // Node-local service fork/exec for process tasks (parallel across nodes).
  double node_spawn_exec = 4.0e-3;  // s
  // In-memory function start on a warm worker.
  double func_start = 0.3e-3;  // s
  // Infrastructure traffic (heartbeats, channel management) multiplexes
  // onto the same dispatcher event loop: each node costs `infra_cost` of
  // dispatcher time every `infra_period`, consuming a processor-sharing
  // fraction infra_cost*nodes/infra_period of its capacity. This is the
  // centralized-runtime drag that bends throughput down at 64 nodes
  // (Fig 5c: 380 -> 204 tasks/s).
  double infra_period = 0.20;     // s
  double infra_cost = 1.40e-3;    // s of dispatcher time per node per period
  // Instance bootstrap (Fig 7: ~9 s).
  double bootstrap_base = 8.6;       // s
  double bootstrap_per_node = 0.02;  // s per node
  // RP-side startup timeout guarding against hung bootstrap (§3.2.2).
  double startup_timeout = 60.0;  // s
  // PMI wireup for multi-node process groups: Dragon has no optimized PMI
  // fabric, so tightly coupled startup is its slowest path.
  double mpi_wireup_base = 0.50;       // s
  double mpi_wireup_per_node = 15e-3;  // s per group node
  double jitter_cv = 0.18;
};

// --- PRRTE / DVM --------------------------------------------------------------
struct PrrteCalibration {
  // One-time Distributed Virtual Machine wireup: prte daemons start on
  // every node and connect once; per-task launches are then cheap (the
  // "minimal per-task overhead" design point of §5).
  double dvm_startup_base = 4.5;        // s
  double dvm_startup_per_node = 0.02;   // s per node
  // Head daemon relays each spawn request (serialized, cheap).
  double head_relay_cost = 1.2e-3;  // s (~800 relays/s)
  // Per-node prted fork/exec of the ranks; parallel across nodes.
  double daemon_spawn_cost = 6.0e-3;  // s
  // PMIx-native wireup for multi-node jobs.
  double mpi_wireup_base = 0.15;      // s
  double mpi_wireup_per_node = 4e-3;  // s per job node
  double jitter_cv = 0.15;
};

// --- RADICAL-Pilot core -----------------------------------------------------
struct CoreCalibration {
  // TMGR intake/translation per task.
  double tmgr_task_cost = 0.20e-3;  // s
  // Batched intake (flux-core job-ingest style: one KVS transaction per
  // batch): fixed transaction cost plus a small per-task increment. A
  // full 64-task batch costs base + 64*per_task = 3.5 ms (~55 us/task)
  // vs 64 * tmgr_task_cost = 12.8 ms serialized — the amortization that
  // lets service-mode ingress (src/ingress) sustain >10k accepts/s.
  double tmgr_batch_base = 0.30e-3;      // s per batch transaction
  double tmgr_batch_per_task = 0.05e-3;  // s per task in the batch
  // Agent scheduler decision per task.
  double agent_sched_cost = 0.25e-3;  // s
  // Executor-side serialization + submit RPC per task, per backend family.
  // The flux value sets RP's ~950 tasks/s multi-instance ceiling (paper:
  // max 930 with flux_n); flux+dragon adds an independent executor path,
  // lifting the aggregate toward the observed ~1,550 tasks/s.
  double submit_cost_flux = 1.05e-3;    // s
  double submit_cost_srun = 0.80e-3;    // s
  double submit_cost_dragon = 0.60e-3;  // s
  double submit_cost_prrte = 0.70e-3;   // s
  // Completion bookkeeping per task.
  double collect_cost = 0.15e-3;  // s
  // Agent bootstrap on top of backend bootstrap.
  double agent_bootstrap = 2.0;  // s
  // Staging (Fig 1: StagerInput/StagerOutput, "multiple instances of that
  // component can execute concurrently"): each stager instance streams one
  // transfer at a time at the shared-filesystem per-stream bandwidth.
  int stager_instances = 4;
  double fs_stream_bandwidth_mbps = 1600.0;  // MB/s per concurrent stream
  double stage_latency = 4.0e-3;             // s per transfer (metadata)
  double jitter_cv = 0.10;
};

struct Calibration {
  SlurmCalibration slurm;
  FluxCalibration flux;
  DragonCalibration dragon;
  PrrteCalibration prrte;
  CoreCalibration core;
};

// Default profile fitted to the paper's Frontier measurements.
inline Calibration frontier_calibration() { return Calibration{}; }

}  // namespace flotilla::platform
