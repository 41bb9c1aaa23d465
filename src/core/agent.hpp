// The RP Agent: acquires resources and manages task execution (§3, Fig 1).
//
// Pipeline per task (each arrow is a serialized component with a calibrated
// per-task cost, so RP's own throughput ceilings emerge from queueing):
//
//   TaskManager -> [agent scheduler] -> router -> [backend executor] ->
//   TaskBackend -> (events) -> [collector] -> final state / retry
//
// The router implements the paper's task-type-aware backend selection:
// executables to Flux (or srun), functions to Dragon, with hints and
// failover. The collector applies retry-with-budget fault tolerance and
// routes retries around unhealthy backends (§3.2's failover behaviour).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/profiler.hpp"
#include "core/session.hpp"
#include "core/task.hpp"
#include "platform/backend.hpp"
#include "sched/placer.hpp"
#include "sched/queue.hpp"
#include "sim/random.hpp"
#include "sim/server.hpp"

namespace flotilla::core {

// Backend selection policy (§6 lists "dynamic backend selection based on
// workload characteristics" as future work; both policies are provided).
enum class RouterPolicy {
  // Hint, else first registered healthy backend accepting the modality.
  kStatic,
  // Hint, else the compatible backend with the least queued work
  // (executor backlog + backend in-flight), balancing mixed loads.
  kAdaptive,
};

class Agent {
 public:
  using TaskHandler = std::function<void(const Task&)>;
  using ReadyHandler = std::function<void(bool ok, std::string error)>;

  Agent(Session& session, platform::NodeRange allocation,
        bool trace_tasks = false,
        RouterPolicy router = RouterPolicy::kStatic);

  // Registers a backend executor; `submit_cost` is RP's per-task
  // serialization+RPC cost toward that backend (CoreCalibration). Order of
  // registration is the router's preference order.
  void add_backend(std::unique_ptr<platform::TaskBackend> backend,
                   double submit_cost);

  // Bootstraps the agent and all backends concurrently. Reports success if
  // at least one backend comes up; backends that fail to bootstrap are
  // dropped (degraded mode) and noted in the error string.
  void bootstrap(ReadyHandler ready);
  bool active() const { return active_; }

  // Accepts a task in TMGR_SCHEDULING state.
  void execute(std::shared_ptr<Task> task);

  // Requests cancellation of a non-final task. Tasks not yet handed to a
  // backend cancel at their next pipeline step; running tasks cancel when
  // their payload ends (backends cannot preempt). Returns false if the
  // task is unknown or already final.
  bool cancel(const std::string& uid);

  // Fires exactly once per task, on a final state. Single owner (the task
  // manager); observers should use add_final_listener.
  void on_task_final(TaskHandler handler) {
    final_handler_ = std::move(handler);
  }

  // Observer called (after the owner) on every final state.
  void add_final_listener(TaskHandler handler) {
    final_listeners_.push_back(std::move(handler));
  }

  // Registers a listener fired whenever a task's payload begins executing
  // (also on retried attempts). Multiple listeners are supported; service
  // managers use this to detect service readiness.
  void on_task_start(TaskHandler handler) {
    start_handlers_.push_back(std::move(handler));
  }

  Profiler& profiler() { return profiler_; }
  platform::NodeRange allocation() const { return allocation_; }
  std::size_t inflight() const { return live_; }

  platform::TaskBackend* backend(const std::string& name);
  std::vector<std::string> backend_names() const;

  void shutdown();

 private:
  struct BackendSlot {
    std::unique_ptr<platform::TaskBackend> backend;
    std::unique_ptr<sim::Server> submit_server;
    double submit_cost = 0.0;
    bool ready = false;
    // State for externally scheduled backends (self_scheduling() false):
    // the agent places tasks itself, holds their resources, and waitlists
    // tasks that do not fit until a completion frees capacity. The placer
    // rotates an indexed first-fit cursor over the backend's span; the
    // waitlist policy is strict FIFO (head-of-line blocking) to mirror
    // the agent scheduler's FIFO admission.
    std::unique_ptr<sched::Placer> placer;
    std::unordered_map<std::string, platform::Placement> held;
    sched::TaskQueue waitlist{std::make_unique<sched::FifoPolicy>()};
  };

  // Where the Agent keeps a task it accepted, at index TaskId.
  struct TaskSlot {
    std::shared_ptr<Task> task;  // null when empty or finalized
    // The backend of the task's latest submit_to. backends_ does not change
    // after bootstrap, so the pointer stays valid.
    BackendSlot* backend = nullptr;
  };

  // The slot holding the live task with `uid` — the uid a backend or a
  // caller passed in — or nullptr (see task_ordinal).
  TaskSlot* find(std::string_view uid);

  void enter_scheduling(std::shared_ptr<Task> task);
  void schedule(std::shared_ptr<Task> task);
  double staging_time(double mb);
  BackendSlot* route(const Task& task);
  void submit_to(BackendSlot& slot, std::shared_ptr<Task> task);
  // Agent-side placement for externally scheduled backends; returns false
  // when the task was waitlisted.
  bool place_and_launch(BackendSlot& slot, std::shared_ptr<Task> task);
  void release_held(BackendSlot& slot, const std::string& uid);
  void drain_waitlist(BackendSlot& slot);
  void handle_start(const std::string& uid);
  void handle_completion(const platform::LaunchOutcome& outcome);
  void finalize(std::shared_ptr<Task> task, TaskState state);
  bool any_backend_for(const Task& task);

  Session& session_;
  platform::NodeRange allocation_;
  RouterPolicy router_policy_;
  obs::TraceHandle obs_trace_;
  Profiler profiler_;
  sim::RngStream rng_;
  sim::Server scheduler_;   // agent scheduler component
  sim::Server collector_;   // completion bookkeeping component
  sim::Server stager_in_;   // concurrent input-staging streams
  sim::Server stager_out_;  // concurrent output-staging streams
  std::vector<BackendSlot> backends_;
  std::vector<TaskSlot> tasks_;  // indexed by TaskId
  std::size_t live_ = 0;        // occupied slots in tasks_
  TaskHandler final_handler_;
  std::vector<TaskHandler> final_listeners_;
  std::vector<TaskHandler> start_handlers_;
  bool active_ = false;
  bool shut_down_ = false;
};

}  // namespace flotilla::core
