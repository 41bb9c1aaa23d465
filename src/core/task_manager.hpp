// TaskManager: the user-facing task API (Fig 1 ①②).
//
// Accepts task descriptions, assigns TaskIds, runs them through the TMGR
// pipeline (a serialized intake component with a calibrated per-task cost)
// and hands them to a pilot's agent. Completion callbacks fire once per
// task on a final state.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/agent.hpp"
#include "core/session.hpp"
#include "core/task.hpp"
#include "sim/random.hpp"
#include "sim/server.hpp"

namespace flotilla::core {

// The consecutive TaskIds [begin, end) of one submit_batch.
struct TaskIdRange {
  TaskId begin = 0;
  TaskId end = 0;

  std::size_t size() const { return end - begin; }
};

class TaskManager {
 public:
  using TaskHandler = std::function<void(const Task&)>;

  TaskManager(Session& session, Agent& agent);

  // Submits one task; returns its uid.
  std::string submit(TaskDescription description);
  // Submits the tasks in order, as one submit() each, and returns their
  // uids. The descriptions are freed before the uids are made.
  std::vector<std::string> submit(std::vector<TaskDescription> descriptions);
  // Submits one task, as submit() does, and returns its TaskId instead of
  // its uid.
  TaskId submit_task(TaskDescription description);

  // Submits a batch as ONE intake transaction (flux-core job-ingest
  // style): every task advances to kTmgrScheduling now, but the whole
  // batch pays a single amortized intake cost
  // (tmgr_batch_base + n * tmgr_batch_per_task) instead of n serialized
  // per-task costs. Tasks reach the agent in batch order. Moves from
  // every description and returns the batch's TaskIds, which are
  // consecutive. The ingress service (src/ingress) is the intended caller.
  TaskIdRange submit_batch(std::span<TaskDescription> descriptions);

  // Intake items (a task, or a whole submit_batch) currently queued or in
  // service in the TMGR intake component — the dispatcher-saturation
  // signal admission control keys off.
  std::size_t intake_backlog() const {
    return intake_waiting_ + static_cast<std::size_t>(intake_.in_service());
  }

  // Fires on every task reaching a final state.
  void on_complete(TaskHandler handler) {
    completion_handler_ = std::move(handler);
  }

  // Observes every state transition of every task submitted *after* this
  // call (installed on the task before its first transition). Multiple
  // consumers may register — invariant checkers (src/check) and the
  // journal scribe (src/journal) coexist; hooks fire in registration
  // order. Tasks already submitted keep the hook set they were given: each
  // registration makes a new context with a new set and leaves the older
  // ones as they are.
  void on_transition(Task::TransitionHook hook);

  const Task& task(const std::string& uid) const;

  // Requests cancellation (cooperative; see Agent::cancel). Returns false
  // for unknown or already-final tasks.
  bool cancel(const std::string& uid);
  bool cancel(TaskId id);

  Agent& agent() { return agent_; }
  Session& session() { return session_; }

  // Visits every task this manager was given (analytics/reporting), in
  // sorted uid order so downstream reports are reproducible.
  void for_each_task(const std::function<void(const Task&)>& fn) const;
  std::size_t submitted() const { return total_submitted_; }
  std::size_t finished() const { return finished_; }
  bool idle() const { return finished_ == total_submitted_; }

 private:
  // Tasks are stored by value, in chunks of kChunkTasks that never
  // reallocate, so a Task* stays valid for the manager's lifetime. The
  // position of a task is its submit order, which is TaskId order.
  static constexpr std::size_t kChunkTasks = 512;

  Task& at(std::size_t pos) {
    return chunks_[pos / kChunkTasks][pos % kChunkTasks];
  }
  const Task& at(std::size_t pos) const {
    return chunks_[pos / kChunkTasks][pos % kChunkTasks];
  }
  // Position of this manager's task with `id`, or nullopt.
  std::optional<std::size_t> position(TaskId id) const;
  // Position of this manager's task with `uid`, or nullopt (see
  // canonical_task_id).
  std::optional<std::size_t> position(std::string_view uid) const;
  bool cancel_at(std::size_t pos);
  // Takes the next task ordinal, creates the task in its slot and moves it
  // into TMGR_SCHEDULING.
  Task& create(TaskDescription description);
  // Queues an intake item for the tasks just created (one task, or the
  // run batches_ ends with) and starts the head if intake is free.
  void enqueue_intake();
  // Starts the head item: draws its cost and hands it to intake_, whose
  // completion passes its tasks to the agent and starts the next item.
  void start_intake();

  Session& session_;
  Agent& agent_;
  sim::RngStream rng_;
  // The intake is a cursor over task positions: every task from
  // intake_next_ on waits in submit order, so the queue stores no item per
  // task. intake_ serves one item at a time; an item's cost is drawn when
  // it starts, which is submit order, as when each was drawn at submit.
  sim::Server intake_;
  std::size_t intake_next_ = 0;     // first task not yet started
  std::size_t intake_waiting_ = 0;  // items waiting, a batch counted once
  // Waiting submit_batch runs of positions [first, second), the oldest at
  // batch_head_. Cleared once every run has started, so a warm intake
  // reuses the buffer instead of allocating per batch.
  std::vector<std::pair<std::size_t, std::size_t>> batches_;
  std::size_t batch_head_ = 0;
  obs::TraceHandle obs_trace_;
  // Uids are unique per session, not per manager: another manager on the
  // same session may hold the TaskIds between two of these tasks.
  std::vector<std::vector<Task>> chunks_;
  // Every task context handed out, one per hook set, the current one last.
  std::vector<std::unique_ptr<const Task::Context>> contexts_;
  TaskHandler completion_handler_;
  std::size_t total_submitted_ = 0;
  std::size_t finished_ = 0;
};

}  // namespace flotilla::core
