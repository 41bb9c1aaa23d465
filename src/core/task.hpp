// Task model: description + state machine, mirroring RADICAL-Pilot's task
// abstraction (§3). Every task — executable or function, routed to any
// backend — passes through the same lifecycle, which is what lets RP keep
// uniform profiling and failure handling across execution substrates.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "platform/backend.hpp"
#include "platform/types.hpp"
#include "sim/engine.hpp"

namespace flotilla::core {

// User-facing description; immutable once submitted.
struct TaskDescription {
  std::string name;  // optional human label (e.g. "docking.12")
  platform::ResourceDemand demand;
  sim::Time duration = 0.0;  // synthetic payload runtime (0 = null task)
  platform::TaskModality modality = platform::TaskModality::kExecutable;
  // "": let the router decide; otherwise a backend name ("srun", "flux",
  // "dragon") that must accept the task's modality.
  std::string backend_hint;
  int max_retries = 0;          // §4.2: "basic fault tolerance via retries"
  double fail_probability = 0;  // fault-injection knob
  std::string stage;            // workflow stage tag (analytics/grouping)
  // Data staged through the shared filesystem before/after execution
  // (Fig 1: StagerInput / StagerOutput). 0 skips the staging states.
  double input_mb = 0.0;
  double output_mb = 0.0;
  // Co-scheduling: tasks sharing a non-empty gang tag (with gang_size
  // members) are placed atomically and started together. Requires a
  // backend with co-scheduling support (Flux).
  std::string gang;
  int gang_size = 0;
  // Scheduling urgency (Flux semantics: 0..31, default 16; higher is
  // considered first). Honored by backends with priority queues (Flux).
  int priority = 16;
};

enum class TaskState : std::uint8_t {
  kNew,              // described, not yet accepted
  kTmgrScheduling,   // in the task manager pipeline
  kStagingInput,     // input data moving through the stager
  kAgentScheduling,  // agent scheduler deciding backend/queue
  kExecutorPending,  // serialized toward a backend
  kRunning,          // payload executing
  kStagingOutput,    // output data moving through the stager
  kDone,             // final: success
  kFailed,           // final: exhausted retries or unrecoverable
  kCanceled,         // final: canceled by the user or shutdown
};

std::string_view to_string(TaskState state);
bool is_final(TaskState state);

// Dense task handle: the ordinal the session's IdRegistry formats into the
// uid ("task.000042" -> 42). The TaskManager and the Agent keep their tasks
// in vectors indexed by it.
using TaskId = std::uint32_t;

// The ordinal in a "task.<digits>" uid, or nullopt when `uid` has another
// shape or the number does not fit a TaskId. Padding is not checked:
// "task.00042" parses to 42, so a caller resolving a uid must also compare
// it with the uid of the task it finds in that slot.
std::optional<TaskId> task_ordinal(std::string_view uid);

// Runtime object tracked by the session. Transitions are validated: a task
// can only move forward, except for the retry edge Running/ExecutorPending
// -> AgentScheduling.
class Task {
 public:
  // Observes every state transition, after it was applied. `from` is the
  // state the task left. Invariant checkers (src/check) subscribe through
  // TaskManager::on_transition; the hook is shared across tasks, hence the
  // shared_ptr indirection.
  using TransitionHook =
      std::function<void(const Task&, TaskState from, TaskState to)>;

  Task(TaskId id, std::string uid, TaskDescription description)
      : id_(id), uid_(std::move(uid)), description_(std::move(description)) {}

  TaskId id() const { return id_; }
  const std::string& uid() const { return uid_; }
  const TaskDescription& description() const { return description_; }

  TaskState state() const { return state_; }
  void advance(TaskState next, sim::Time now);

  void set_transition_hook(std::shared_ptr<const TransitionHook> hook) {
    transition_hook_ = std::move(hook);
  }

  // Time of first entry into `state`; returns false if never entered.
  bool state_time(TaskState state, sim::Time& out) const;

  int attempts() const { return attempts_; }
  void begin_attempt() { ++attempts_; }

  const std::string& backend() const { return backend_; }
  void set_backend(std::string backend) { backend_ = std::move(backend); }

  const std::string& error() const { return error_; }
  void set_error(std::string error) { error_ = std::move(error); }

  // Whether the *current* attempt reached execution; reset on retry.
  bool launched() const { return launched_; }
  void mark_launched() { launched_ = true; }
  void clear_launched() { launched_ = false; }

  // Cooperative cancellation: the flag is honored at the next lifecycle
  // point (backends cannot preempt a running payload).
  bool cancel_requested() const { return cancel_requested_; }
  void request_cancel() { cancel_requested_ = true; }

 private:
  TaskId id_;
  std::string uid_;
  TaskDescription description_;
  std::shared_ptr<const TransitionHook> transition_hook_;
  TaskState state_ = TaskState::kNew;
  // First entry time per state, valid where the state's bit is set in
  // entered_.
  static constexpr std::size_t kStateCount =
      static_cast<std::size_t>(TaskState::kCanceled) + 1;
  std::array<sim::Time, kStateCount> state_times_{};
  std::uint16_t entered_ = 0;
  std::string backend_;
  std::string error_;
  int attempts_ = 0;
  bool launched_ = false;
  bool cancel_requested_ = false;
};

}  // namespace flotilla::core
