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
bool is_final(TaskState state);

// Dense task handle: the ordinal the session's IdRegistry formats into the
// uid ("task.000042" -> 42). The TaskManager keeps its tasks in TaskId
// order and the Agent keeps its slots in a vector indexed by it.
using TaskId = std::uint32_t;

// The ordinal in a "task.<digits>" uid, or nullopt when `uid` has another
// shape or the number does not fit a TaskId. Padding is not checked:
// "task.00042" parses to 42, so a caller resolving a uid must also compare
// it with the uid of the task it finds in that slot.
std::optional<TaskId> task_ordinal(std::string_view uid);

// Interned task labels and the side table of task names. The session owns
// one: a task keeps a 4-byte id per label (backend hint, stage, gang and
// the backend it was routed to) and a pointer to this table, so its labels
// stay readable after the agent or manager that interned them is gone.
using LabelId = std::uint32_t;

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

  // Task names, filed only for tasks that have one; "" for the rest.
  void set_name(TaskId id, std::string name);
  const std::string& name(TaskId id) const;

 private:
  static const std::string& no_text();

  std::unordered_map<std::string, LabelId> ids_;
  std::vector<const std::string*> texts_;  // by LabelId - 1, keys of ids_
  std::unordered_map<TaskId, std::string> names_;
};

// Runtime object tracked by the session: the description's fields, the
// state machine and the current attempt, in one compact record that the
// TaskManager holds by value. Transitions are validated: a task can only
// move forward, except for the retry edge Running/ExecutorPending ->
// AgentScheduling.
class Task {
 public:
  // Observes every state transition, after it was applied. `from` is the
  // state the task left. Invariant checkers (src/check) and the journal
  // scribe subscribe through TaskManager::on_transition.
  using TransitionHook =
      std::function<void(const Task&, TaskState from, TaskState to)>;
  // The hooks a task fires, in order. The TaskManager owns each set and
  // never changes one it has handed out.
  using TransitionHooks = std::vector<TransitionHook>;

  // Copies the description's numbers, interns its labels in `labels` and
  // files a non-empty name there. `labels` and `hooks` (may be null) must
  // outlive the task.
  Task(TaskId id, std::string uid, TaskDescription description,
       TaskLabels& labels, const TransitionHooks* hooks = nullptr);

  TaskId id() const { return id_; }
  const std::string& uid() const { return uid_; }

  // The description it was submitted with, field by field.
  const std::string& name() const { return labels_->name(id_); }
  const platform::ResourceDemand& demand() const { return demand_; }
  sim::Time duration() const { return duration_; }
  platform::TaskModality modality() const { return modality_; }
  const std::string& backend_hint() const { return labels_->text(hint_); }
  int max_retries() const { return max_retries_; }
  double fail_probability() const { return fail_probability_; }
  const std::string& stage() const { return labels_->text(stage_); }
  double input_mb() const { return input_mb_; }
  double output_mb() const { return output_mb_; }
  const std::string& gang() const { return labels_->text(gang_); }
  int gang_size() const { return gang_size_; }
  int priority() const { return priority_; }

  TaskState state() const { return state_; }
  void advance(TaskState next, sim::Time now);

  // Time of first entry into `state`; returns false if never entered.
  bool state_time(TaskState state, sim::Time& out) const;

  int attempts() const { return attempts_; }
  void begin_attempt() { ++attempts_; }

  // The backend of the latest attempt, "" before the first one.
  const std::string& backend() const { return labels_->text(backend_); }
  void set_backend(LabelId backend) { backend_ = backend; }

  // Set only when an attempt fails or the task is canceled; "" otherwise.
  const std::string& error() const;
  void set_error(std::string error);

  // Whether the *current* attempt reached execution; reset on retry.
  bool launched() const { return launched_; }
  void mark_launched() { launched_ = true; }
  void clear_launched() { launched_ = false; }

  // Cooperative cancellation: the flag is honored at the next lifecycle
  // point (backends cannot preempt a running payload).
  bool cancel_requested() const { return cancel_requested_; }
  void request_cancel() { cancel_requested_ = true; }

 private:
  static constexpr std::size_t kStateCount =
      static_cast<std::size_t>(TaskState::kCanceled) + 1;

  // First entry time per state; NaN for a state never entered.
  std::array<sim::Time, kStateCount> state_times_;
  platform::ResourceDemand demand_;
  sim::Time duration_;
  double fail_probability_;
  double input_mb_;
  double output_mb_;
  std::string uid_;
  const TaskLabels* labels_;
  const TransitionHooks* hooks_;
  std::unique_ptr<std::string> error_;
  TaskId id_;
  int attempts_ = 0;
  int max_retries_;
  int gang_size_;
  int priority_;
  LabelId hint_;
  LabelId stage_;
  LabelId gang_;
  LabelId backend_ = TaskLabels::kEmpty;
  TaskState state_ = TaskState::kNew;
  platform::TaskModality modality_;
  bool launched_ = false;
  bool cancel_requested_ = false;
};

}  // namespace flotilla::core
