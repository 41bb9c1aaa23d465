#include "core/workflow.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "util/error.hpp"

namespace flotilla::core {

Workflow::Workflow(TaskManager& tmgr) : tmgr_(tmgr) {
  tmgr_.on_complete([this](const Task& task) { handle_completion(task); });
}

void Workflow::add_stage(std::string name,
                         std::vector<TaskDescription> tasks,
                         std::vector<std::string> deps) {
  FLOT_CHECK(!stage_ids_.count(name), "duplicate stage '", name, "'");
  FLOT_CHECK(!tasks.empty(), "stage '", name, "' has no tasks");
  const auto id = static_cast<StageId>(stages_.size());
  Stage stage;
  stage.deps.reserve(deps.size());
  for (const auto& dep : deps) {
    const auto it = stage_ids_.find(dep);
    FLOT_CHECK(it != stage_ids_.end(), "stage '", name,
               "' depends on unknown '", dep, "'");
    stage.deps.push_back(it->second);
  }
  for (const StageId dep : stage.deps) stages_[dep].dependents.push_back(id);
  stage.remaining = tasks.size();
  stage.tasks = std::move(tasks);
  stage_ids_.emplace(name, id);
  stage.name = std::move(name);
  stages_.push_back(std::move(stage));
  if (started_) maybe_submit(id);
}

void Workflow::start() {
  FLOT_CHECK(!started_, "workflow started twice");
  started_ = true;
  std::vector<StageId> all(stages_.size());
  std::iota(all.begin(), all.end(), StageId{0});
  submit_in_name_order(std::move(all));
}

void Workflow::submit_in_name_order(std::vector<StageId> ids) {
  // Submission order never depends on add order.
  std::sort(ids.begin(), ids.end(), [this](StageId a, StageId b) {
    return stages_[a].name < stages_[b].name;
  });
  for (const StageId id : ids) maybe_submit(id);
}

bool Workflow::deps_met(const Stage& stage) const {
  for (const StageId dep : stage.deps) {
    if (!stages_[dep].complete) return false;
  }
  return true;
}

void Workflow::maybe_submit(StageId id) {
  Stage& stage = stages_[id];
  if (stage.submitted || !deps_met(stage)) return;
  stage.submitted = true;
  for (auto& description : stage.tasks) {
    if (description.stage.empty()) description.stage = stage.name;
    const TaskId task = tmgr_.submit_task(std::move(description));
    if (task_stage_.size() <= task) {
      task_stage_.resize(std::size_t{task} + 1, kNoStage);
    }
    task_stage_[task] = id;
  }
  stage.tasks.clear();
}

bool Workflow::stage_complete(const std::string& name) const {
  const auto it = stage_ids_.find(name);
  return it != stage_ids_.end() && stages_[it->second].complete;
}

void Workflow::handle_completion(const Task& task) {
  if (task_handler_) task_handler_(task);
  const TaskId id = task.id();
  if (id >= task_stage_.size() || task_stage_[id] == kNoStage) {
    return;  // task outside this workflow
  }
  const StageId done = std::exchange(task_stage_[id], kNoStage);
  if (task.state() != TaskState::kDone) ++failed_tasks_;

  Stage& stage = stages_[done];
  FLOT_CHECK(stage.remaining > 0, "stage '", stage.name, "' over-completed");
  if (--stage.remaining > 0) return;
  stage.complete = true;
  ++completed_stages_;
  // The handler may add stages; one whose deps are complete is submitted
  // as it is added.
  if (stage_handler_) stage_handler_(stage.name);

  // Every other stage waits on an incomplete dep, so only dependents of
  // this one can have become ready.
  submit_in_name_order(stage.dependents);

  if (completed_stages_ == stages_.size() && done_handler_) done_handler_();
}

}  // namespace flotilla::core
