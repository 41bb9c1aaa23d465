#include "core/task.hpp"

#include <charconv>

#include "util/error.hpp"

namespace flotilla::core {

std::string_view to_string(TaskState state) {
  switch (state) {
    case TaskState::kNew:
      return "NEW";
    case TaskState::kTmgrScheduling:
      return "TMGR_SCHEDULING";
    case TaskState::kStagingInput:
      return "AGENT_STAGING_INPUT";
    case TaskState::kAgentScheduling:
      return "AGENT_SCHEDULING";
    case TaskState::kExecutorPending:
      return "EXECUTOR_PENDING";
    case TaskState::kRunning:
      return "RUNNING";
    case TaskState::kStagingOutput:
      return "AGENT_STAGING_OUTPUT";
    case TaskState::kDone:
      return "DONE";
    case TaskState::kFailed:
      return "FAILED";
    case TaskState::kCanceled:
      return "CANCELED";
  }
  return "?";
}

bool is_final(TaskState state) {
  return state == TaskState::kDone || state == TaskState::kFailed ||
         state == TaskState::kCanceled;
}

std::optional<TaskId> task_ordinal(std::string_view uid) {
  constexpr std::string_view kPrefix = "task.";
  if (!uid.starts_with(kPrefix)) return std::nullopt;
  const char* first = uid.data() + kPrefix.size();
  const char* last = uid.data() + uid.size();
  // from_chars takes no sign or whitespace, and reports an empty number,
  // and one too large for TaskId, as errors.
  TaskId id = 0;
  const auto [end, ec] = std::from_chars(first, last, id);
  if (ec != std::errc() || end != last) return std::nullopt;
  return id;
}

namespace {

bool valid_transition(TaskState from, TaskState to) {
  if (is_final(from)) return false;
  if (to == TaskState::kCanceled || to == TaskState::kFailed) return true;
  switch (from) {
    case TaskState::kNew:
      return to == TaskState::kTmgrScheduling;
    case TaskState::kTmgrScheduling:
      // Staging-input is optional (tasks without input data skip it).
      return to == TaskState::kStagingInput ||
             to == TaskState::kAgentScheduling;
    case TaskState::kStagingInput:
      return to == TaskState::kAgentScheduling;
    case TaskState::kAgentScheduling:
      return to == TaskState::kExecutorPending;
    case TaskState::kExecutorPending:
      // Retry edge: a backend may reject/lose the task before it ran.
      return to == TaskState::kRunning || to == TaskState::kAgentScheduling;
    case TaskState::kRunning:
      // Staging-output is optional; retry edge goes back to the agent
      // scheduler.
      return to == TaskState::kStagingOutput || to == TaskState::kDone ||
             to == TaskState::kAgentScheduling;
    case TaskState::kStagingOutput:
      return to == TaskState::kDone;
    default:
      return false;
  }
}

}  // namespace

void Task::advance(TaskState next, sim::Time now) {
  FLOT_CHECK(valid_transition(state_, next), "task ", uid_,
             ": invalid transition ", to_string(state_), " -> ",
             to_string(next));
  const TaskState from = state_;
  state_ = next;
  const auto index = static_cast<unsigned>(next);
  if ((entered_ & (1u << index)) == 0) {  // keep the *first* entry time
    entered_ = static_cast<std::uint16_t>(entered_ | (1u << index));
    state_times_[index] = now;
  }
  if (transition_hook_ && *transition_hook_) {
    (*transition_hook_)(*this, from, next);
  }
}

bool Task::state_time(TaskState state, sim::Time& out) const {
  const auto index = static_cast<unsigned>(state);
  if ((entered_ & (1u << index)) == 0) return false;
  out = state_times_[index];
  return true;
}

}  // namespace flotilla::core
