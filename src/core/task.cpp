#include "core/task.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "util/id_registry.hpp"

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

namespace {

constexpr std::string_view kUidNamespace = "task";
constexpr std::string_view kUidPrefix = "task.";

}  // namespace

std::string task_uid(TaskId id) {
  return util::IdRegistry::format(kUidNamespace, id);
}

bool uid_less(TaskId a, TaskId b) {
  // Below 10^6 every uid has 6 digits, so text order is number order.
  if (a < 1'000'000 && b < 1'000'000) return a < b;
  return task_uid(a) < task_uid(b);
}

std::optional<TaskId> task_ordinal(std::string_view uid) {
  if (!uid.starts_with(kUidPrefix)) return std::nullopt;
  const char* first = uid.data() + kUidPrefix.size();
  const char* last = uid.data() + uid.size();
  // from_chars takes no sign or whitespace, and reports an empty number,
  // and one too large for TaskId, as errors.
  TaskId id = 0;
  const auto [end, ec] = std::from_chars(first, last, id);
  if (ec != std::errc() || end != last) return std::nullopt;
  return id;
}

std::optional<TaskId> canonical_task_id(std::string_view uid) {
  const auto id = task_ordinal(uid);
  if (!id) return std::nullopt;
  std::size_t digits = 1;
  for (TaskId rest = *id; rest >= 10; rest /= 10) ++digits;
  const auto width =
      static_cast<std::size_t>(util::IdRegistry::kDefaultWidth);
  if (uid.size() != kUidPrefix.size() + std::max(digits, width)) {
    return std::nullopt;
  }
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

std::size_t TaskLabels::ShapeHash::operator()(const TaskShape& s) const {
  // FNV-1a over whole words, then a splitmix64 finish so that fields
  // differing only in their high bits (a double's exponent) still spread.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t word) {
    h = (h ^ word) * 0x100000001b3ULL;
  };
  mix(static_cast<std::uint64_t>(s.demand.cores));
  mix(static_cast<std::uint64_t>(s.demand.gpus));
  mix(static_cast<std::uint64_t>(s.demand.cores_per_node));
  mix(std::bit_cast<std::uint64_t>(s.fail_probability));
  mix(std::bit_cast<std::uint64_t>(s.input_mb));
  mix(std::bit_cast<std::uint64_t>(s.output_mb));
  mix(static_cast<std::uint32_t>(s.max_retries));
  mix(static_cast<std::uint32_t>(s.gang_size));
  mix(static_cast<std::uint32_t>(s.priority));
  mix(s.hint);
  mix(s.stage);
  mix(s.gang);
  mix(static_cast<std::uint64_t>(s.modality));
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<std::size_t>(h ^ (h >> 31));
}

bool TaskLabels::ShapeEqual::operator()(const TaskShape& a,
                                        const TaskShape& b) const {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  return a.demand == b.demand &&
         bits(a.fail_probability) == bits(b.fail_probability) &&
         bits(a.input_mb) == bits(b.input_mb) &&
         bits(a.output_mb) == bits(b.output_mb) &&
         a.max_retries == b.max_retries && a.gang_size == b.gang_size &&
         a.priority == b.priority && a.hint == b.hint &&
         a.stage == b.stage && a.gang == b.gang && a.modality == b.modality;
}

ShapeId TaskLabels::intern(const TaskShape& shape) {
  if (!shapes_.empty()) {
    for (const ShapeId id : recent_) {
      if (ShapeEqual{}(*shapes_[id], shape)) return id;
    }
  }
  const auto next = static_cast<ShapeId>(shapes_.size());
  const auto [it, inserted] = shape_ids_.try_emplace(shape, next);
  // Map nodes never move, so the key's address is stable.
  if (inserted) shapes_.push_back(&it->first);
  recent_[1] = recent_[0];
  recent_[0] = it->second;
  return it->second;
}

void TaskLabels::set_name(TaskId id, std::string name) {
  names_.insert_or_assign(id, std::move(name));
}

const std::string& TaskLabels::name(TaskId id) const {
  const auto it = names_.find(id);
  return it == names_.end() ? no_text() : it->second;
}

void TaskLabels::set_error(TaskId id, std::string error) {
  errors_.insert_or_assign(id, std::move(error));
}

const std::string& TaskLabels::error(TaskId id) const {
  const auto it = errors_.find(id);
  return it == errors_.end() ? no_text() : it->second;
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

Task::Task(TaskId id, TaskDescription description, const Context& context)
    : duration_(description.duration),
      context_(&context),
      id_(id) {
  TaskLabels& labels = *context.labels;
  shape_ = labels.intern(TaskShape{
      .demand = description.demand,
      .fail_probability = description.fail_probability,
      .input_mb = description.input_mb,
      .output_mb = description.output_mb,
      .max_retries = description.max_retries,
      .gang_size = description.gang_size,
      .priority = description.priority,
      .hint = labels.intern(description.backend_hint),
      .stage = labels.intern(description.stage),
      .gang = labels.intern(description.gang),
      .modality = description.modality,
  });
  state_times_.fill(std::numeric_limits<sim::Time>::quiet_NaN());
  if (!description.name.empty()) {
    labels.set_name(id, std::move(description.name));
  }
}

void Task::advance(TaskState next, sim::Time now) {
  FLOT_CHECK(valid_transition(state_, next), "task ", uid(),
             ": invalid transition ", to_string(state_), " -> ",
             to_string(next));
  const TaskState from = state_;
  state_ = next;
  auto& entered = state_times_[slot(next)];
  if (std::isnan(entered)) entered = now;  // keep the *first* entry time
  for (const auto& hook : context_->hooks) hook(*this, from, next);
}

bool Task::state_time(TaskState state, sim::Time& out) const {
  // kNew is never entered, and of the final states only state_ was.
  if (state == TaskState::kNew || (is_final(state) && state != state_)) {
    return false;
  }
  const sim::Time entered = state_times_[slot(state)];
  if (std::isnan(entered)) return false;
  out = entered;
  return true;
}

// The manager holds 10^5-10^6 of these at the paper's bulk sizes.
static_assert(sizeof(Task) == 96, "core::Task is no longer 96 bytes");

}  // namespace flotilla::core
