#include "core/task.hpp"

#include <charconv>
#include <cmath>
#include <limits>

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

const std::string& TaskLabels::no_text() {
  static const std::string empty;
  return empty;
}

LabelId TaskLabels::intern(std::string_view text) {
  if (text.empty()) return kEmpty;  // unlabeled tasks skip the hash
  const auto next = static_cast<LabelId>(texts_.size() + 1);
  const auto [it, inserted] = ids_.try_emplace(std::string(text), next);
  // Map nodes never move, so the key's address is stable.
  if (inserted) texts_.push_back(&it->first);
  return it->second;
}

void TaskLabels::set_name(TaskId id, std::string name) {
  names_.insert_or_assign(id, std::move(name));
}

const std::string& TaskLabels::name(TaskId id) const {
  const auto it = names_.find(id);
  return it == names_.end() ? no_text() : it->second;
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

Task::Task(TaskId id, std::string uid, TaskDescription description,
           TaskLabels& labels, const TransitionHooks* hooks)
    : demand_(description.demand),
      duration_(description.duration),
      fail_probability_(description.fail_probability),
      input_mb_(description.input_mb),
      output_mb_(description.output_mb),
      uid_(std::move(uid)),
      labels_(&labels),
      hooks_(hooks),
      id_(id),
      max_retries_(description.max_retries),
      gang_size_(description.gang_size),
      priority_(description.priority),
      hint_(labels.intern(description.backend_hint)),
      stage_(labels.intern(description.stage)),
      gang_(labels.intern(description.gang)),
      modality_(description.modality) {
  state_times_.fill(std::numeric_limits<sim::Time>::quiet_NaN());
  if (!description.name.empty()) {
    labels.set_name(id, std::move(description.name));
  }
}

void Task::advance(TaskState next, sim::Time now) {
  FLOT_CHECK(valid_transition(state_, next), "task ", uid_,
             ": invalid transition ", to_string(state_), " -> ",
             to_string(next));
  const TaskState from = state_;
  state_ = next;
  auto& entered = state_times_[static_cast<std::size_t>(next)];
  if (std::isnan(entered)) entered = now;  // keep the *first* entry time
  if (hooks_ != nullptr) {
    for (const auto& hook : *hooks_) hook(*this, from, next);
  }
}

bool Task::state_time(TaskState state, sim::Time& out) const {
  const sim::Time entered = state_times_[static_cast<std::size_t>(state)];
  if (std::isnan(entered)) return false;
  out = entered;
  return true;
}

const std::string& Task::error() const {
  return error_ ? *error_ : labels_->text(TaskLabels::kEmpty);
}

void Task::set_error(std::string error) {
  error_ = std::make_unique<std::string>(std::move(error));
}

// The manager holds 10^5-10^6 of these at the paper's bulk sizes.
static_assert(sizeof(Task) <= 240, "core::Task grew past 240 bytes");

}  // namespace flotilla::core
