// AsyncFlow: future/continuation-style task composition.
//
// The paper's ecosystem runs workflow layers on top of RP — notably
// RADICAL-AsyncFlow ("fast and scalable asynchronous workflows", cited in
// §5) — whose model is futures and continuations rather than named stages.
// This is that API surface for Flotilla: submit() returns a TaskFuture;
// then() chains work onto completion; when_all()/when_any() join groups.
// All callbacks run inside the simulation event loop (single-threaded, no
// synchronization needed).
//
//   AsyncFlow flow(tmgr);
//   auto sim  = flow.submit(sim_task);
//   auto post = sim.then([&](const Task& t) { return flow.submit(reduce); });
//   flow.when_all({a, b, c}, [&] { ... });
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/task_manager.hpp"

namespace flotilla::core {

class AsyncFlow;

// Handle to an asynchronously executing task. Cheap to copy; all copies
// alias the same underlying state.
class TaskFuture {
 public:
  using Continuation = std::function<void(const Task&)>;

  TaskFuture() = default;

  std::string uid() const;
  bool valid() const { return state_ != nullptr; }
  bool done() const;               // final state reached
  bool succeeded() const;          // final state is DONE

  // Registers a continuation; fires immediately (via the event queue) if
  // the task already finished. Multiple continuations are allowed and run
  // in registration order.
  TaskFuture& then(Continuation fn);

 private:
  friend class AsyncFlow;

  struct State {
    TaskId id = 0;
    const Task* task = nullptr;  // set at completion
    std::vector<Continuation> continuations;
    AsyncFlow* flow = nullptr;
  };

  explicit TaskFuture(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

class AsyncFlow {
 public:
  // The AsyncFlow takes over the TaskManager's completion callback; use
  // on_task() for a global observer instead.
  explicit AsyncFlow(TaskManager& tmgr);

  // Submits a task and returns its future.
  TaskFuture submit(TaskDescription description);

  // Fires `fn` once every listed future is final.
  void when_all(const std::vector<TaskFuture>& futures,
                std::function<void()> fn);

  // Fires `fn` with the first future to reach a final state (exactly once).
  void when_any(const std::vector<TaskFuture>& futures,
                std::function<void(const Task&)> fn);

  // Global per-task observer (runs before continuations).
  void on_task(std::function<void(const Task&)> fn) {
    observer_ = std::move(fn);
  }

  std::size_t inflight() const { return inflight_; }
  TaskManager& task_manager() { return tmgr_; }
  Session& session() { return tmgr_.session(); }

 private:
  friend class TaskFuture;

  void handle_completion(const Task& task);

  TaskManager& tmgr_;
  std::unordered_map<TaskId, std::shared_ptr<TaskFuture::State>> pending_;
  std::function<void(const Task&)> observer_;
  std::size_t inflight_ = 0;
};

}  // namespace flotilla::core
