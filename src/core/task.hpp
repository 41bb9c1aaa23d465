// Task model: description + state machine, mirroring RADICAL-Pilot's task
// abstraction (§3). Every task — executable or function, routed to any
// backend — passes through the same lifecycle, which is what lets RP keep
// uniform profiling and failure handling across execution substrates.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

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
constexpr bool is_final(TaskState state) {
  return state == TaskState::kDone || state == TaskState::kFailed ||
         state == TaskState::kCanceled;
}

// Dense task handle, and the only task identity the process stores: the
// ordinal the session's IdRegistry counts for "task" ("task.000042" ->
// 42). The TaskManager keeps its tasks in TaskId order and the Agent keeps
// its slots in a vector indexed by it.
using TaskId = std::uint32_t;

// The uid of task `id`, formatted by IdRegistry::format("task", id):
// "task." and the ordinal zero-padded to 6 digits, wider past 999,999
// ("task.000042", "task.1000000"). It fits the small-string buffer, so it
// never allocates; it is formatted only where a uid leaves the process or
// a human reads it.
std::string task_uid(TaskId id);

// Whether task `a`'s uid sorts before task `b`'s. That is TaskId order
// until the counter outgrows its zero padding: "task.1000000" sorts
// before "task.999998".
bool uid_less(TaskId a, TaskId b);

// The ordinal in a "task.<digits>" uid, or nullopt when `uid` has another
// shape or the number does not fit a TaskId. Padding is not checked:
// "task.00042" parses to 42 (see canonical_task_id).
std::optional<TaskId> task_ordinal(std::string_view uid);

// The TaskId whose uid is exactly `uid`: task_ordinal plus a length check,
// so "task.00042" and "task.0000042" name no task and "task.000042" names
// task 42.
std::optional<TaskId> canonical_task_id(std::string_view uid);

// Interned task labels, description shapes and the side tables of task
// names and errors. The session owns one, so what a task reads through it
// stays readable after the agent or manager that interned it is gone.
using LabelId = std::uint32_t;
using ShapeId = std::uint32_t;

// Every field of a TaskDescription except its name and duration, with the
// labels interned: what the tasks of a bulk campaign (or of one workflow
// stage) have in common. Doubles compare by bit pattern, so a shape hands
// back exactly the numbers it was interned with.
struct TaskShape {
  platform::ResourceDemand demand;
  double fail_probability = 0.0;
  double input_mb = 0.0;
  double output_mb = 0.0;
  int max_retries = 0;
  int gang_size = 0;
  int priority = 16;
  LabelId hint = 0;
  LabelId stage = 0;
  LabelId gang = 0;
  platform::TaskModality modality = platform::TaskModality::kExecutable;
};

class TaskLabels {
 public:
  static constexpr LabelId kEmpty = 0;  // the id of ""

  TaskLabels() = default;
  TaskLabels(const TaskLabels&) = delete;
  TaskLabels& operator=(const TaskLabels&) = delete;

  // The id of `text`, interned on first use.
  LabelId intern(std::string_view text);
  const std::string& text(LabelId id) const {
    return id == kEmpty ? no_text() : *texts_[id - 1];
  }

  // The id of `shape`, interned on first use; ids count up from 0 in
  // first-seen order. A shape never moves once interned.
  ShapeId intern(const TaskShape& shape);
  const TaskShape& shape(ShapeId id) const { return *shapes_[id]; }
  std::size_t shape_count() const { return shapes_.size(); }

  // Task names, filed only for tasks that have one; "" for the rest.
  void set_name(TaskId id, std::string name);
  const std::string& name(TaskId id) const;

  // Task errors, filed only when an attempt fails or a task is canceled;
  // "" for the rest.
  void set_error(TaskId id, std::string error);
  const std::string& error(TaskId id) const;

 private:
  struct ShapeHash {
    std::size_t operator()(const TaskShape& shape) const;
  };
  struct ShapeEqual {
    bool operator()(const TaskShape& a, const TaskShape& b) const;
  };

  static const std::string& no_text();

  std::unordered_map<std::string, LabelId> ids_;
  std::vector<const std::string*> texts_;  // by LabelId - 1, keys of ids_
  std::unordered_map<TaskShape, ShapeId, ShapeHash, ShapeEqual> shape_ids_;
  std::vector<const TaskShape*> shapes_;  // by ShapeId, keys of shape_ids_
  // The last two shapes interned or found, newest first: a campaign of one
  // shape, or of two that alternate (executables and functions), hashes
  // none.
  std::array<ShapeId, 2> recent_{};
  std::unordered_map<TaskId, std::string> names_;
  std::unordered_map<TaskId, std::string> errors_;
};

// Runtime object tracked by the session: what varies per task (id,
// duration, state machine, current attempt) in one compact record that
// the TaskManager holds by value. The rest of the description is a shape
// interned in the session. Transitions are validated: a task can only
// move forward, except for the retry edge Running/ExecutorPending ->
// AgentScheduling.
class Task {
 public:
  // Observes every state transition, after it was applied. `from` is the
  // state the task left. Invariant checkers (src/check) and the journal
  // scribe subscribe through TaskManager::on_transition.
  using TransitionHook =
      std::function<void(const Task&, TaskState from, TaskState to)>;
  // The hooks a task fires, in order.
  using TransitionHooks = std::vector<TransitionHook>;

  // What the tasks submitted under one hook set share: the session's
  // labels and the hooks they fire. The TaskManager owns each context and
  // never changes one it has handed out.
  struct Context {
    explicit Context(TaskLabels& table) : labels(&table) {}

    TaskLabels* labels;
    TransitionHooks hooks;
  };

  // Interns the description's shape in the context's labels and files a
  // non-empty name there. `context` must outlive the task.
  Task(TaskId id, TaskDescription description, const Context& context);

  TaskId id() const { return id_; }
  // Formatted from the id on each call (see task_uid).
  std::string uid() const { return task_uid(id_); }

  // The description it was submitted with, field by field.
  const std::string& name() const { return labels().name(id_); }
  const platform::ResourceDemand& demand() const { return shape().demand; }
  sim::Time duration() const { return duration_; }
  platform::TaskModality modality() const { return shape().modality; }
  const std::string& backend_hint() const {
    return labels().text(shape().hint);
  }
  int max_retries() const { return shape().max_retries; }
  double fail_probability() const { return shape().fail_probability; }
  const std::string& stage() const { return labels().text(shape().stage); }
  double input_mb() const { return shape().input_mb; }
  double output_mb() const { return shape().output_mb; }
  const std::string& gang() const { return labels().text(shape().gang); }
  int gang_size() const { return shape().gang_size; }
  int priority() const { return shape().priority; }

  TaskState state() const { return state_; }
  void advance(TaskState next, sim::Time now);

  // Time of first entry into `state`; returns false if never entered.
  bool state_time(TaskState state, sim::Time& out) const;

  int attempts() const { return attempts_; }
  void begin_attempt() { ++attempts_; }

  // The backend of the latest attempt, "" before the first one.
  const std::string& backend() const { return labels().text(backend_); }
  void set_backend(LabelId backend) { backend_ = backend; }

  // Set only when an attempt fails or the task is canceled; "" otherwise.
  const std::string& error() const { return labels().error(id_); }
  void set_error(std::string error) {
    context_->labels->set_error(id_, std::move(error));
  }

  // Whether the *current* attempt reached execution; reset on retry.
  bool launched() const { return launched_; }
  void mark_launched() { launched_ = true; }
  void clear_launched() { launched_ = false; }

  // Cooperative cancellation: the flag is honored at the next lifecycle
  // point (backends cannot preempt a running payload).
  bool cancel_requested() const { return cancel_requested_; }
  void request_cancel() { cancel_requested_ = true; }

 private:
  // One entry time per non-final state a task can enter (kNew is never
  // entered), plus one for the final state: a task enters exactly one,
  // and state_ says which.
  static constexpr std::size_t kFinalSlot =
      static_cast<std::size_t>(TaskState::kStagingOutput);
  static constexpr std::size_t kTimeSlots = kFinalSlot + 1;
  static constexpr std::size_t slot(TaskState state) {
    return is_final(state) ? kFinalSlot : static_cast<std::size_t>(state) - 1;
  }

  const TaskLabels& labels() const { return *context_->labels; }
  const TaskShape& shape() const { return labels().shape(shape_); }

  // First entry time per slot; NaN for a state never entered.
  std::array<sim::Time, kTimeSlots> state_times_;
  sim::Time duration_;
  const Context* context_;
  TaskId id_;
  ShapeId shape_;
  int attempts_ = 0;
  LabelId backend_ = TaskLabels::kEmpty;
  TaskState state_ = TaskState::kNew;
  bool launched_ = false;
  bool cancel_requested_ = false;
};

}  // namespace flotilla::core
