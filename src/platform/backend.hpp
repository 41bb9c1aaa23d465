// TaskBackend: the contract between the RP core and a task runtime system
// (srun/Slurm, Flux, Dragon). Mirrors the integration surface of §3.2:
// asynchronous submission, event-driven state propagation (no polling), and
// explicit bootstrap with failure reporting so the core can apply its
// startup-timeout and failover logic.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "obs/tracer.hpp"
#include "platform/placement.hpp"
#include "platform/types.hpp"
#include "sim/engine.hpp"

namespace flotilla::platform {

enum class TaskModality : std::uint8_t {
  kExecutable,  // standalone binary (possibly multi-node/MPI)
  kFunction,    // in-memory function task
};

struct LaunchRequest {
  std::string id;  // task uid, unique per session
  ResourceDemand demand;
  sim::Time duration = 0.0;  // payload runtime; 0 models a null task
  TaskModality modality = TaskModality::kExecutable;
  double fail_probability = 0.0;  // fault injection knob
  // For backends without an internal scheduler (self_scheduling() false,
  // e.g. a PRRTE DVM): the placement the agent's scheduler decided on.
  // The agent owns these resources and releases them on completion.
  Placement placement;
  bool preplaced = false;
  // Co-scheduling group (§2): tasks sharing a gang tag are placed
  // atomically and started together. gang_size members form the group.
  std::string gang;
  int gang_size = 0;
  // Scheduling urgency (Flux: 0..31, higher first).
  int priority = 16;
};

struct LaunchOutcome {
  std::string id;
  bool success = true;
  std::string error;
  sim::Time started = 0.0;   // virtual time execution began
  sim::Time finished = 0.0;  // virtual time execution ended
};

class TaskBackend {
 public:
  using ReadyHandler = std::function<void(bool ok, std::string error)>;
  using StartHandler = std::function<void(const std::string& id)>;
  using CompletionHandler = std::function<void(const LaunchOutcome&)>;

  virtual ~TaskBackend() = default;

  virtual const std::string& name() const = 0;

  // Which task modalities this backend can execute.
  virtual bool accepts(TaskModality modality) const = 0;

  // Whether the backend schedules/places tasks itself (Flux, Slurm,
  // Dragon). Backends returning false (PRRTE's DVM model, §5: "delegates
  // coordination and scheduling to external systems") receive preplaced
  // requests from the agent's own scheduler.
  virtual bool self_scheduling() const { return true; }

  // The node range this backend executes on (used by the agent's
  // scheduler for externally scheduled backends).
  virtual NodeRange span() const = 0;

  // Whether the backend can co-schedule gangs (atomic all-or-nothing
  // placement + synchronized start). Only hierarchical schedulers (Flux)
  // support this.
  virtual bool supports_coscheduling() const { return false; }

  // Asynchronously bootstraps the runtime; `ready` fires exactly once.
  virtual void bootstrap(ReadyHandler ready) = 0;

  // Accepts a task for execution. Must only be called after a successful
  // bootstrap. Never blocks; results arrive via the handlers.
  virtual void submit(LaunchRequest request) = 0;

  // Event subscriptions. Handlers fire from the event loop, once per task.
  virtual void on_task_start(StartHandler handler) = 0;
  virtual void on_task_complete(CompletionHandler handler) = 0;

  // Releases resources; pending tasks complete with failure.
  virtual void shutdown() = 0;

  // False once the backend has crashed or failed to bootstrap.
  virtual bool healthy() const = 0;

  // Tasks accepted but not yet finished.
  virtual std::size_t inflight() const = 0;

  // Drain/quiesce probe: true when the backend holds no queued or running
  // work anywhere inside it — no inflight tasks, no internally queued jobs,
  // no held placements. At simulation drain every backend must be
  // quiescent; the invariant checkers (src/check) assert exactly that.
  // Backends with internal queues override this to include them.
  virtual bool quiescent() const { return inflight() == 0; }

  // Recovery-path equivalence digest (docs/recovery.md): a deterministic
  // one-line summary of the backend's externally observable state —
  // health, in-flight work, and whatever internal structure the backend
  // considers part of its restored identity (partition health, queue
  // depths). After a journal-replay recovery, a backend's summary must
  // equal the uninterrupted same-seed run's summary at the same virtual
  // time; the backend_contract_test RecoveryContract suite asserts this
  // for every backend.
  virtual std::string restore_summary() const {
    return name() + "|healthy=" + (healthy() ? "1" : "0") +
           "|inflight=" + std::to_string(inflight());
  }

  // Attaches the structured tracer (src/obs). Called before bootstrap;
  // backends propagate the handle to their instances, placers and queues.
  // The default keeps untraced backends untouched.
  virtual void set_trace(obs::TraceHandle) {}
};

}  // namespace flotilla::platform
