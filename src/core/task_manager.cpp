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
  agent_.on_task_final([this](const Task& task) {
    ++finished_;
    if (completion_handler_) completion_handler_(task);
  });
}

void TaskManager::on_transition(Task::TransitionHook hook) {
  transition_hooks_.push_back(std::move(hook));
  // Tasks hold one shared hook; fan out to every registered consumer in
  // registration order. Rebuilt per registration so tasks submitted
  // earlier keep the hook set that existed when they entered the system.
  transition_hook_ = std::make_shared<const Task::TransitionHook>(
      [hooks = transition_hooks_](const Task& task, TaskState from,
                                  TaskState to) {
        for (const auto& h : hooks) h(task, from, to);
      });
}

std::shared_ptr<Task> TaskManager::create(TaskDescription description) {
  auto [ordinal, uid] = session_.ids().issue("task");
  FLOT_CHECK(ordinal <= std::numeric_limits<TaskId>::max(),
             "task ordinal ", ordinal, " overflows TaskId");
  const auto id = static_cast<TaskId>(ordinal);
  auto task =
      std::make_shared<Task>(id, std::move(uid), std::move(description));
  if (transition_hook_) task->set_transition_hook(transition_hook_);
  if (tasks_.size() <= id) tasks_.resize(std::size_t{id} + 1);
  tasks_[id] = task;
  ++total_submitted_;
  agent_.profiler().submitted(*task);
  task->advance(TaskState::kTmgrScheduling, session_.now());
  obs_trace_.begin(obs::SpanType::kTaskSubmit, "tmgr", task->uid(),
                   static_cast<double>(task->description().demand.cores));
  return task;
}

std::string TaskManager::submit(TaskDescription description) {
  validate(description);
  auto task = create(std::move(description));
  std::string uid = task->uid();
  const auto& cal = session_.calibration().core;
  intake_.submit(rng_.lognormal_mean_cv(cal.tmgr_task_cost, cal.jitter_cv),
                 [this, task = std::move(task)]() mutable {
                   obs_trace_.end(obs::SpanType::kTaskSubmit, "tmgr",
                                  task->uid());
                   agent_.execute(std::move(task));
                 });
  return uid;
}

std::vector<std::string> TaskManager::submit(
    std::vector<TaskDescription> descriptions) {
  std::vector<std::string> uids;
  uids.reserve(descriptions.size());
  for (auto& description : descriptions) {
    uids.push_back(submit(std::move(description)));
  }
  return uids;
}

std::vector<std::string> TaskManager::submit_batch(
    std::vector<TaskDescription> descriptions) {
  std::vector<std::string> uids;
  uids.reserve(descriptions.size());
  if (descriptions.empty()) return uids;
  for (const auto& description : descriptions) validate(description);
  std::vector<std::shared_ptr<Task>> batch;
  batch.reserve(descriptions.size());
  const auto& cal = session_.calibration().core;
  for (auto& description : descriptions) {
    auto task = create(std::move(description));
    uids.push_back(task->uid());
    batch.push_back(std::move(task));
  }
  const double cost =
      cal.tmgr_batch_base +
      static_cast<double>(batch.size()) * cal.tmgr_batch_per_task;
  intake_.submit(rng_.lognormal_mean_cv(cost, cal.jitter_cv),
                 [this, batch = std::move(batch)]() mutable {
                   for (auto& task : batch) {
                     obs_trace_.end(obs::SpanType::kTaskSubmit, "tmgr",
                                    task->uid());
                     agent_.execute(std::move(task));
                   }
                 });
  return uids;
}

Task* TaskManager::find(std::string_view uid) const {
  const auto id = task_ordinal(uid);
  if (!id || *id >= tasks_.size()) return nullptr;
  Task* task = tasks_[*id].get();
  return task != nullptr && task->uid() == uid ? task : nullptr;
}

bool TaskManager::cancel(const std::string& uid) {
  Task* task = find(uid);
  if (task == nullptr || is_final(task->state())) return false;
  // A task still in TMGR intake has not reached the agent; flag it and the
  // agent will cancel it on arrival.
  if (task->state() == TaskState::kTmgrScheduling ||
      task->state() == TaskState::kStagingInput) {
    task->request_cancel();
    return true;
  }
  return agent_.cancel(uid);
}

const Task& TaskManager::task(const std::string& uid) const {
  const Task* task = find(uid);
  FLOT_CHECK(task != nullptr, "unknown task ", uid);
  return *task;
}

void TaskManager::for_each_task(
    const std::function<void(const Task&)>& fn) const {
  std::vector<const Task*> order;
  order.reserve(total_submitted_);
  for (const auto& task : tasks_) {
    if (task) order.push_back(task.get());
  }
  // TaskId order is uid order until the counter outgrows its zero padding:
  // "task.1000000" sorts before "task.999998".
  const auto by_uid = [](const Task* a, const Task* b) {
    return a->uid() < b->uid();
  };
  if (!std::is_sorted(order.begin(), order.end(), by_uid)) {
    std::sort(order.begin(), order.end(), by_uid);
  }
  for (const Task* task : order) fn(*task);
}

}  // namespace flotilla::core
