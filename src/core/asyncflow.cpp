#include "core/asyncflow.hpp"

#include "util/error.hpp"

namespace flotilla::core {

std::string TaskFuture::uid() const {
  FLOT_CHECK(state_, "uid() on an invalid TaskFuture");
  return task_uid(state_->id);
}

bool TaskFuture::done() const { return state_ && state_->task != nullptr; }

bool TaskFuture::succeeded() const {
  return done() && state_->task->state() == TaskState::kDone;
}

TaskFuture& TaskFuture::then(Continuation fn) {
  FLOT_CHECK(state_, "then() on an invalid TaskFuture");
  FLOT_CHECK(fn, "then() with an empty continuation");
  if (state_->task != nullptr) {
    // Already final: deliver through the event queue to keep the "never
    // inline" invariant callers rely on.
    const Task* task = state_->task;
    state_->flow->session().engine().in(
        0.0, [fn = std::move(fn), task] { fn(*task); });
    return *this;
  }
  state_->continuations.push_back(std::move(fn));
  return *this;
}

AsyncFlow::AsyncFlow(TaskManager& tmgr) : tmgr_(tmgr) {
  tmgr_.on_complete([this](const Task& task) { handle_completion(task); });
}

TaskFuture AsyncFlow::submit(TaskDescription description) {
  auto state = std::make_shared<TaskFuture::State>();
  state->flow = this;
  state->id = tmgr_.submit_task(std::move(description));
  pending_.emplace(state->id, state);
  ++inflight_;
  return TaskFuture(std::move(state));
}

void AsyncFlow::handle_completion(const Task& task) {
  if (observer_) observer_(task);
  const auto it = pending_.find(task.id());
  if (it == pending_.end()) return;
  auto state = it->second;
  pending_.erase(it);
  FLOT_CHECK(inflight_ > 0, "completion without inflight task");
  --inflight_;
  // The task lives in its TaskManager's storage for the manager's lifetime.
  state->task = &task;
  auto continuations = std::move(state->continuations);
  state->continuations.clear();
  for (auto& fn : continuations) fn(*state->task);
}

void AsyncFlow::when_all(const std::vector<TaskFuture>& futures,
                         std::function<void()> fn) {
  FLOT_CHECK(fn, "when_all with an empty callback");
  auto remaining = std::make_shared<std::size_t>(0);
  auto fn_shared = std::make_shared<std::function<void()>>(std::move(fn));
  for (const auto& future : futures) {
    FLOT_CHECK(future.valid(), "when_all with an invalid future");
    if (future.done()) continue;
    ++*remaining;
  }
  if (*remaining == 0) {
    session().engine().in(0.0, [fn_shared] { (*fn_shared)(); });
    return;
  }
  for (auto future : futures) {
    if (future.done()) continue;
    future.then([remaining, fn_shared](const Task&) {
      if (--*remaining == 0) (*fn_shared)();
    });
  }
}

void AsyncFlow::when_any(const std::vector<TaskFuture>& futures,
                         std::function<void(const Task&)> fn) {
  FLOT_CHECK(fn, "when_any with an empty callback");
  FLOT_CHECK(!futures.empty(), "when_any with no futures");
  auto fired = std::make_shared<bool>(false);
  auto fn_shared =
      std::make_shared<std::function<void(const Task&)>>(std::move(fn));
  for (auto future : futures) {
    FLOT_CHECK(future.valid(), "when_any with an invalid future");
    future.then([fired, fn_shared](const Task& task) {
      if (*fired) return;
      *fired = true;
      (*fn_shared)(task);
    });
  }
}

}  // namespace flotilla::core
