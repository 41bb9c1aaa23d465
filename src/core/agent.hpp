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

#include <cstdint>
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

  // Accepts a task in TMGR_SCHEDULING state. The agent keeps a pointer to
  // it until it is final; its TaskManager owns it and must outlive that.
  void execute(Task& task);

  // Requests cancellation of a non-final task. Tasks not yet handed to a
  // backend cancel at their next pipeline step; running tasks cancel when
  // their payload ends (backends cannot preempt). Returns false if the
  // task is unknown or already final.
  bool cancel(const std::string& uid);
  bool cancel(TaskId id);

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
    // The backend's name, interned when the first task is routed here.
    LabelId label = TaskLabels::kEmpty;
    bool ready = false;
    // State for externally scheduled backends (self_scheduling() false):
    // the agent places tasks itself, holds their resources (in held_), and
    // waitlists tasks that do not fit until a completion frees capacity.
    // The placer rotates an indexed first-fit cursor over the backend's
    // span; the waitlist policy is strict FIFO (head-of-line blocking) to
    // mirror the agent scheduler's FIFO admission.
    std::unique_ptr<sched::Placer> placer;
    sched::TaskQueue waitlist{std::make_unique<sched::FifoPolicy>()};
  };

  // Where the Agent keeps a task it accepted, at index TaskId.
  struct TaskSlot {
    Task* task = nullptr;  // null when empty or finalized
    // Index in backends_ of the task's latest submit_to, or kNoBackend.
    // backends_ does not change after bootstrap.
    std::uint32_t backend = kNoBackend;
  };
  static constexpr std::uint32_t kNoBackend = ~std::uint32_t{0};

  // The slot holding the live task `id`, or nullptr.
  TaskSlot* find(TaskId id);
  // The slot holding the live task with `uid` — the uid a backend or a
  // caller passed in — or nullptr (see canonical_task_id).
  TaskSlot* find(std::string_view uid);
  // The task of a waitlist entry, whose slot is its TaskId. Waitlists hold
  // live tasks only, so it resolves.
  Task& waitlisted(const sched::QueueEntry& entry) {
    return *tasks_[entry.slot].task;
  }

  void enter_scheduling(Task& task);
  void schedule(Task& task);
  double staging_time(double mb);
  BackendSlot* route(const Task& task);
  void submit_to(BackendSlot& slot, Task& task);
  // Agent-side placement for externally scheduled backends; returns false
  // when the task was waitlisted.
  bool place_and_launch(BackendSlot& slot, Task& task);
  // Launches `task` on `slot`'s backend with the placement the agent
  // found, which held_ keeps until the completion.
  void launch_placed(BackendSlot& slot, Task& task,
                     platform::Placement placement);
  // Returns the placement held for task `id`, if any, to `slot`'s placer
  // and drains its waitlist.
  void release_held(BackendSlot& slot, TaskId id);
  void drain_waitlist(BackendSlot& slot);
  void handle_start(const std::string& uid);
  void handle_completion(const platform::LaunchOutcome& outcome);
  void finalize(Task& task, TaskState state);
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
  // Resources placed for the current attempts of tasks on externally
  // scheduled backends, by TaskId. Only looked up by id, never walked.
  std::unordered_map<TaskId, platform::Placement> held_;
  std::size_t live_ = 0;        // occupied slots in tasks_
  TaskHandler final_handler_;
  std::vector<TaskHandler> final_listeners_;
  std::vector<TaskHandler> start_handlers_;
  bool active_ = false;
  bool shut_down_ = false;
};

}  // namespace flotilla::core
