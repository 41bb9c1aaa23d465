#include "core/task_manager.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace flotilla::core {

namespace {

// A description is refused before it becomes a task, so no half-made task
// reaches the profiler or the agent.
void validate(const TaskDescription& d) {
  const auto label = [&d] { return d.name.empty() ? "task" : d.name; };
  FLOT_CHECK(std::isfinite(d.duration) && d.duration >= 0.0, label(),
             ": duration must be finite and non-negative, got ", d.duration);
  FLOT_CHECK(d.fail_probability >= 0.0 && d.fail_probability <= 1.0,
             label(), ": fail_probability must be in [0, 1], got ",
             d.fail_probability);
  FLOT_CHECK(d.max_retries >= 0, label(),
             ": max_retries must be non-negative, got ", d.max_retries);
  FLOT_CHECK(d.demand.cores >= 0 && d.demand.gpus >= 0 &&
                 d.demand.cores_per_node >= 0,
             label(), ": demand counts must be non-negative, got cores=",
             d.demand.cores, " gpus=", d.demand.gpus,
             " cores_per_node=", d.demand.cores_per_node);
}

}  // namespace

TaskManager::TaskManager(Session& session, Agent& agent)
    : session_(session),
      agent_(agent),
      rng_(session.seed(), "tmgr"),
      intake_(session.engine(), 1),
      obs_trace_(session.trace_handle()) {
  contexts_.push_back(std::make_unique<const Task::Context>(session.labels()));
  agent_.on_task_final([this](const Task& task) {
    ++finished_;
    if (completion_handler_) completion_handler_(task);
  });
}

void TaskManager::on_transition(Task::TransitionHook hook) {
  auto context = std::make_unique<Task::Context>(*contexts_.back());
  context->hooks.push_back(std::move(hook));
  contexts_.push_back(std::move(context));
}

Task& TaskManager::create(TaskDescription description) {
  const std::uint64_t ordinal = session_.ids().next_ordinal("task");
  FLOT_CHECK(ordinal <= std::numeric_limits<TaskId>::max(),
             "task ordinal ", ordinal, " overflows TaskId");
  const auto id = static_cast<TaskId>(ordinal);
  // position() searches by TaskId, so ids must grow in submit order.
  FLOT_CHECK(total_submitted_ == 0 || id > at(total_submitted_ - 1).id(),
             "task ordinal ", ordinal, " does not follow the last one issued");
  if (total_submitted_ % kChunkTasks == 0) {
    chunks_.emplace_back().reserve(kChunkTasks);
  }
  Task& task = chunks_.back().emplace_back(id, std::move(description),
                                           *contexts_.back());
  ++total_submitted_;
  agent_.profiler().submitted(task);
  task.advance(TaskState::kTmgrScheduling, session_.now());
  if (obs_trace_) {
    obs_trace_.begin(obs::SpanType::kTaskSubmit, "tmgr", task.uid(),
                     static_cast<double>(task.demand().cores));
  }
  return task;
}

TaskId TaskManager::submit_task(TaskDescription description) {
  validate(description);
  const TaskId id = create(std::move(description)).id();
  enqueue_intake();
  return id;
}

std::string TaskManager::submit(TaskDescription description) {
  return task_uid(submit_task(std::move(description)));
}

std::vector<std::string> TaskManager::submit(
    std::vector<TaskDescription> descriptions) {
  std::vector<TaskId> ids;
  ids.reserve(descriptions.size());
  for (auto& description : descriptions) {
    ids.push_back(submit_task(std::move(description)));
  }
  // Free the descriptions before the uids are made, so the peak holds
  // descriptions and tasks, or tasks and uids, never all three.
  std::vector<TaskDescription>().swap(descriptions);
  std::vector<std::string> uids;
  uids.reserve(ids.size());
  for (const TaskId id : ids) uids.push_back(task_uid(id));
  return uids;
}

TaskIdRange TaskManager::submit_batch(
    std::span<TaskDescription> descriptions) {
  if (descriptions.empty()) return {};
  for (const auto& description : descriptions) validate(description);
  const std::size_t begin = total_submitted_;
  for (auto& description : descriptions) create(std::move(description));
  const TaskIdRange ids{at(begin).id(), at(total_submitted_ - 1).id() + 1};
  // A transition hook that submits from inside the batch would take an id
  // in between.
  FLOT_CHECK(ids.size() == descriptions.size(), "batch of ",
             descriptions.size(), " tasks got non-consecutive ids ",
             ids.begin, "..", ids.end - 1);
  batches_.emplace_back(begin, total_submitted_);
  enqueue_intake();
  return ids;
}

void TaskManager::enqueue_intake() {
  ++intake_waiting_;
  // Inside an item's completion intake_ is free while items still wait:
  // the head starts now, ahead of the rest of that completion, as a
  // server starts its queue head on a submit.
  if (intake_.in_service() == 0) start_intake();
}

void TaskManager::start_intake() {
  const auto& cal = session_.calibration().core;
  const std::size_t begin = intake_next_;
  std::size_t end = begin + 1;
  double cost = cal.tmgr_task_cost;
  if (batch_head_ != batches_.size() && batches_[batch_head_].first == begin) {
    end = batches_[batch_head_].second;
    if (++batch_head_ == batches_.size()) {
      batches_.clear();
      batch_head_ = 0;
    }
    cost = cal.tmgr_batch_base +
           static_cast<double>(end - begin) * cal.tmgr_batch_per_task;
  }
  intake_next_ = end;
  --intake_waiting_;
  intake_.submit(rng_.lognormal_mean_cv(cost, cal.jitter_cv),
                 [this, begin, end] {
                   for (std::size_t pos = begin; pos < end; ++pos) {
                     Task& task = at(pos);
                     if (obs_trace_) {
                       obs_trace_.end(obs::SpanType::kTaskSubmit, "tmgr",
                                      task.uid());
                     }
                     agent_.execute(task);
                   }
                   if (intake_waiting_ != 0 && intake_.in_service() == 0) {
                     start_intake();
                   }
                 });
}

std::optional<std::size_t> TaskManager::position(TaskId id) const {
  // Positions are in increasing TaskId order: binary search.
  std::size_t lo = 0;
  std::size_t hi = total_submitted_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (at(mid).id() < id) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == total_submitted_ || at(lo).id() != id) return std::nullopt;
  return lo;
}

std::optional<std::size_t> TaskManager::position(std::string_view uid) const {
  const auto id = canonical_task_id(uid);
  if (!id) return std::nullopt;
  return position(*id);
}

bool TaskManager::cancel(const std::string& uid) {
  const auto pos = position(uid);
  return pos && cancel_at(*pos);
}

bool TaskManager::cancel(TaskId id) {
  const auto pos = position(id);
  return pos && cancel_at(*pos);
}

bool TaskManager::cancel_at(std::size_t pos) {
  Task& task = at(pos);
  if (is_final(task.state())) return false;
  // A task still in TMGR intake has not reached the agent; flag it and the
  // agent will cancel it on arrival.
  if (task.state() == TaskState::kTmgrScheduling ||
      task.state() == TaskState::kStagingInput) {
    task.request_cancel();
    return true;
  }
  return agent_.cancel(task.id());
}

const Task& TaskManager::task(const std::string& uid) const {
  const auto pos = position(uid);
  FLOT_CHECK(pos.has_value(), "unknown task ", uid);
  return at(*pos);
}

void TaskManager::for_each_task(
    const std::function<void(const Task&)>& fn) const {
  std::vector<const Task*> order;
  order.reserve(total_submitted_);
  for (const auto& chunk : chunks_) {
    for (const Task& task : chunk) order.push_back(&task);
  }
  // TaskId order is uid order until the counter outgrows its zero padding
  // (see uid_less).
  const auto by_uid = [](const Task* a, const Task* b) {
    return uid_less(a->id(), b->id());
  };
  if (!std::is_sorted(order.begin(), order.end(), by_uid)) {
    std::sort(order.begin(), order.end(), by_uid);
  }
  for (const Task* task : order) fn(*task);
}

}  // namespace flotilla::core
