// TaskManager: the user-facing task API (Fig 1 ①②).
//
// Accepts task descriptions, assigns uids, runs them through the TMGR
// pipeline (a serialized intake component with a calibrated per-task cost)
// and hands them to a pilot's agent. Completion callbacks fire once per
// task on a final state.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/agent.hpp"
#include "core/session.hpp"
#include "core/task.hpp"
#include "sim/random.hpp"
#include "sim/server.hpp"

namespace flotilla::core {

class TaskManager {
 public:
  using TaskHandler = std::function<void(const Task&)>;

  TaskManager(Session& session, Agent& agent);

  // Submits one task; returns its uid.
  std::string submit(TaskDescription description);
  std::vector<std::string> submit(std::vector<TaskDescription> descriptions);

  // Submits a batch as ONE intake transaction (flux-core job-ingest
  // style): every task advances to kTmgrScheduling now, but the whole
  // batch pays a single amortized intake cost
  // (tmgr_batch_base + n * tmgr_batch_per_task) instead of n serialized
  // per-task costs. Tasks reach the agent in batch order. The ingress
  // service (src/ingress) is the intended caller.
  std::vector<std::string> submit_batch(
      std::vector<TaskDescription> descriptions);

  // Tasks currently queued or in service in the TMGR intake component —
  // the dispatcher-saturation signal admission control keys off.
  std::size_t intake_backlog() const {
    return intake_.backlog() + intake_.in_service();
  }

  // Fires on every task reaching a final state.
  void on_complete(TaskHandler handler) {
    completion_handler_ = std::move(handler);
  }

  // Observes every state transition of every task submitted *after* this
  // call (installed on the task before its first transition). Multiple
  // consumers may register — invariant checkers (src/check) and the
  // journal scribe (src/journal) coexist; hooks fire in registration
  // order. Tasks already submitted keep the hook set they were given.
  void on_transition(Task::TransitionHook hook);

  const Task& task(const std::string& uid) const;

  // Requests cancellation (cooperative; see Agent::cancel). Returns false
  // for unknown or already-final tasks.
  bool cancel(const std::string& uid);

  Agent& agent() { return agent_; }
  Session& session() { return session_; }

  // Visits every task ever submitted (analytics/reporting), in sorted uid
  // order so downstream reports are reproducible.
  void for_each_task(const std::function<void(const Task&)>& fn) const;
  std::size_t submitted() const { return total_submitted_; }
  std::size_t finished() const { return finished_; }
  bool idle() const { return finished_ == total_submitted_; }

 private:
  // This manager's task with `uid`, or nullptr (see task_ordinal).
  Task* find(std::string_view uid) const;
  // Issues the next uid, creates the task in its slot and moves it into
  // TMGR_SCHEDULING.
  std::shared_ptr<Task> create(TaskDescription description);

  Session& session_;
  Agent& agent_;
  sim::RngStream rng_;
  sim::Server intake_;
  obs::TraceHandle obs_trace_;
  // Indexed by TaskId. Uids are unique per session, not per manager, so a
  // slot is null when another manager on the same session took that id.
  std::vector<std::shared_ptr<Task>> tasks_;
  std::vector<Task::TransitionHook> transition_hooks_;
  std::shared_ptr<const Task::TransitionHook> transition_hook_;
  TaskHandler completion_handler_;
  std::size_t total_submitted_ = 0;
  std::size_t finished_ = 0;
};

}  // namespace flotilla::core
