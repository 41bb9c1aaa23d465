// Workflow: stages of tasks with dependencies, submitted through a
// TaskManager as their dependencies resolve.
//
// This is the control-flow layer the IMPECCABLE campaign generator builds
// on (§2: "workflow of workflows"): stages can be added dynamically while
// the workflow runs, which is how adaptive task generation ("the number of
// tasks ... is adjusted dynamically at runtime", §4.2) is expressed.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/task.hpp"
#include "core/task_manager.hpp"

namespace flotilla::core {

class Workflow {
 public:
  using StageHandler = std::function<void(const std::string& stage)>;
  using DoneHandler = std::function<void()>;
  using TaskHandler = std::function<void(const Task&)>;

  explicit Workflow(TaskManager& tmgr);

  // Adds a stage. `deps` must name existing stages. May be called before or
  // after start(), enabling adaptive campaigns. Stages with no unresolved
  // deps are submitted immediately once the workflow started.
  void add_stage(std::string name, std::vector<TaskDescription> tasks,
                 std::vector<std::string> deps = {});

  void on_stage_complete(StageHandler handler) {
    stage_handler_ = std::move(handler);
  }
  // Fires whenever all known stages are complete (it can fire again if an
  // adaptive hook adds more work afterwards).
  void on_drained(DoneHandler handler) { done_handler_ = std::move(handler); }
  // Per-task passthrough (the workflow owns the TaskManager's completion
  // callback).
  void on_task(TaskHandler handler) { task_handler_ = std::move(handler); }

  void start();
  bool started() const { return started_; }

  bool stage_complete(const std::string& name) const;
  std::size_t stages_total() const { return stages_.size(); }
  std::size_t stages_completed() const { return completed_stages_; }
  std::uint64_t tasks_failed() const { return failed_tasks_; }

 private:
  // Index of a stage in stages_, in add order.
  using StageId = std::uint32_t;
  static constexpr StageId kNoStage = ~StageId{0};

  struct Stage {
    std::string name;
    std::vector<TaskDescription> tasks;
    std::vector<StageId> deps;
    std::vector<StageId> dependents;  // stages that list this one in deps
    std::size_t remaining = 0;
    bool submitted = false;
    bool complete = false;
  };

  // Submits each stage of `ids` whose deps are complete, in name order.
  void submit_in_name_order(std::vector<StageId> ids);
  void maybe_submit(StageId id);
  bool deps_met(const Stage& stage) const;
  void handle_completion(const Task& task);

  TaskManager& tmgr_;
  // A deque, so a handler that adds a stage leaves references to the
  // others valid.
  std::deque<Stage> stages_;
  std::unordered_map<std::string, StageId> stage_ids_;
  // The stage of each task this workflow submitted, by TaskId; kNoStage
  // for other tasks and for tasks already completed.
  std::vector<StageId> task_stage_;
  StageHandler stage_handler_;
  DoneHandler done_handler_;
  TaskHandler task_handler_;
  std::size_t completed_stages_ = 0;
  std::uint64_t failed_tasks_ = 0;
  bool started_ = false;
};

}  // namespace flotilla::core
