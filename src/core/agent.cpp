#include "core/agent.hpp"

#include <algorithm>
#include <memory>

#include "util/error.hpp"
#include "util/strfmt.hpp"

namespace flotilla::core {

Agent::Agent(Session& session, platform::NodeRange allocation,
             bool trace_tasks, RouterPolicy router)
    : session_(session),
      allocation_(allocation),
      router_policy_(router),
      obs_trace_(session.trace_handle()),
      profiler_(session, trace_tasks),
      rng_(session.seed(), "agent"),
      scheduler_(session.engine(), 1),
      collector_(session.engine(), 1),
      stager_in_(session.engine(),
                 session.calibration().core.stager_instances),
      stager_out_(session.engine(),
                  session.calibration().core.stager_instances) {}

void Agent::add_backend(std::unique_ptr<platform::TaskBackend> backend,
                        double submit_cost) {
  FLOT_CHECK(!active_, "cannot add backends after bootstrap");
  BackendSlot slot;
  slot.backend = std::move(backend);
  slot.submit_server = std::make_unique<sim::Server>(session_.engine(), 1);
  slot.submit_cost = submit_cost;
  if (!slot.backend->self_scheduling()) {
    // The agent is this backend's scheduler; give it a placer over the
    // backend's span.
    slot.placer = std::make_unique<sched::Placer>(session_.cluster(),
                                                  slot.backend->span());
  }
  if (obs_trace_) {
    slot.backend->set_trace(obs_trace_);
    const auto& name = slot.backend->name();
    if (slot.placer) {
      slot.placer->set_trace(obs_trace_, util::cat("agent.", name));
    }
    slot.waitlist.set_trace(
        obs_trace_, util::cat("agent.", name, ".waitlist"),
        [this](std::uint32_t id) { return tasks_[id].task->uid(); });
  }
  slot.backend->on_task_start(
      [this](const std::string& uid) { handle_start(uid); });
  slot.backend->on_task_complete(
      [this](const platform::LaunchOutcome& outcome) {
        handle_completion(outcome);
      });
  backends_.push_back(std::move(slot));
}

void Agent::bootstrap(ReadyHandler ready) {
  FLOT_CHECK(!backends_.empty(), "agent has no backends");
  const auto& cal = session_.calibration().core;
  auto ready_shared = std::make_shared<ReadyHandler>(std::move(ready));
  // Agent components come up first, then all backends bootstrap
  // concurrently (Fig 7's non-additive overhead).
  session_.engine().in(
      rng_.lognormal_mean_cv(cal.agent_bootstrap, cal.jitter_cv),
      [this, ready_shared] {
        auto remaining = std::make_shared<int>(
            static_cast<int>(backends_.size()));
        auto errors = std::make_shared<std::string>();
        for (auto& slot : backends_) {
          BackendSlot* slot_ptr = &slot;
          slot.backend->bootstrap([this, slot_ptr, remaining, errors,
                                   ready_shared](bool ok,
                                                 std::string error) {
            slot_ptr->ready = ok;
            if (!ok) {
              *errors += util::cat("[", slot_ptr->backend->name(), ": ",
                                   error, "]");
            }
            if (--*remaining == 0) {
              const bool any = std::any_of(
                  backends_.begin(), backends_.end(),
                  [](const BackendSlot& s) { return s.ready; });
              active_ = any;
              (*ready_shared)(any, *errors);
            }
          });
        }
      });
}

double Agent::staging_time(double mb) {
  const auto& cal = session_.calibration().core;
  return rng_.lognormal_mean_cv(
      cal.stage_latency + mb / cal.fs_stream_bandwidth_mbps, cal.jitter_cv);
}

void Agent::execute(Task& task) {
  FLOT_CHECK(active_, "agent is not active");
  FLOT_CHECK(task.state() == TaskState::kTmgrScheduling ||
                 task.state() == TaskState::kAgentScheduling,
             "unexpected task state ", to_string(task.state()));
  if (task.state() == TaskState::kAgentScheduling) {
    // Retry path: data is already staged in.
    enter_scheduling(task);
    return;
  }
  const TaskId id = task.id();
  if (tasks_.size() <= id) tasks_.resize(std::size_t{id} + 1);
  if (tasks_[id].task == nullptr) {
    tasks_[id].task = &task;
    ++live_;
  }
  if (task.cancel_requested()) {
    task.set_error("canceled by user");
    finalize(task, TaskState::kCanceled);
    return;
  }
  if (task.input_mb() > 0.0) {
    task.advance(TaskState::kStagingInput, session_.now());
    profiler_.state_change(task);
    const double mb = task.input_mb();
    if (obs_trace_) {
      obs_trace_.begin(obs::SpanType::kTaskStageIn, "agent", task.uid(), mb);
    }
    stager_in_.submit(staging_time(mb), [this, task = &task] {
      if (obs_trace_) {
        obs_trace_.end(obs::SpanType::kTaskStageIn, "agent", task->uid());
      }
      task->advance(TaskState::kAgentScheduling, session_.now());
      profiler_.state_change(*task);
      enter_scheduling(*task);
    });
    return;
  }
  task.advance(TaskState::kAgentScheduling, session_.now());
  profiler_.state_change(task);
  enter_scheduling(task);
}

void Agent::enter_scheduling(Task& task) {
  const auto& cal = session_.calibration().core;
  if (obs_trace_) {
    obs_trace_.begin(obs::SpanType::kTaskSchedule, "agent", task.uid());
  }
  scheduler_.submit(
      rng_.lognormal_mean_cv(cal.agent_sched_cost, cal.jitter_cv),
      [this, task = &task] { schedule(*task); });
}

Agent::BackendSlot* Agent::route(const Task& task) {
  // An explicit, healthy hint always wins. Without one:
  //  - kStatic: first registered healthy backend accepting the modality
  //    (registration order encodes preference, e.g. flux for executables);
  //  - kAdaptive: the compatible backend with the least queued work.
  BackendSlot* best = nullptr;
  std::size_t best_load = 0;
  for (auto& slot : backends_) {
    if (!slot.ready || !slot.backend->healthy()) continue;
    if (!slot.backend->accepts(task.modality())) continue;
    // Gang members need a backend with atomic co-scheduling.
    if (!task.gang().empty() && !slot.backend->supports_coscheduling()) {
      continue;
    }
    if (slot.backend->name() == task.backend_hint()) return &slot;
    if (router_policy_ == RouterPolicy::kStatic) {
      if (!best) best = &slot;
      continue;
    }
    const std::size_t load =
        slot.submit_server->backlog() + slot.backend->inflight();
    if (!best || load < best_load) {
      best = &slot;
      best_load = load;
    }
  }
  // If a hint was given but its backend is gone, `best` is the failover.
  return best;
}

Agent::TaskSlot* Agent::find(TaskId id) {
  if (id >= tasks_.size() || tasks_[id].task == nullptr) return nullptr;
  return &tasks_[id];
}

Agent::TaskSlot* Agent::find(std::string_view uid) {
  const auto id = canonical_task_id(uid);
  return id ? find(*id) : nullptr;
}

bool Agent::cancel(const std::string& uid) {
  const auto id = canonical_task_id(uid);
  return id && cancel(*id);
}

bool Agent::cancel(TaskId id) {
  TaskSlot* found = find(id);
  if (found == nullptr) return false;
  Task& task = *found->task;
  task.request_cancel();
  // Waitlisted tasks can be removed right away; everything else cancels at
  // its next pipeline step.
  for (auto& slot : backends_) {
    if (!slot.waitlist.remove(task.id())) continue;
    task.set_error("canceled by user");
    finalize(task, TaskState::kCanceled);
    return true;
  }
  return true;
}

void Agent::schedule(Task& task) {
  if (obs_trace_) {
    obs_trace_.end(obs::SpanType::kTaskSchedule, "agent", task.uid());
  }
  if (shut_down_ || task.cancel_requested()) {
    task.set_error(shut_down_ ? "agent shut down" : "canceled by user");
    finalize(task, TaskState::kCanceled);
    return;
  }
  BackendSlot* slot = route(task);
  if (!slot) {
    task.set_error(
        !task.gang().empty()
            ? std::string("no healthy backend supports co-scheduling")
            : util::cat("no healthy backend accepts task (modality=",
                        task.modality() == platform::TaskModality::kFunction
                            ? "function"
                            : "executable",
                        ")"));
    finalize(task, TaskState::kFailed);
    return;
  }
  if (obs_trace_) {
    obs_trace_.instant(
        obs::SpanType::kRouting, "agent", task.uid(),
        static_cast<double>(slot - backends_.data()));
  }
  task.advance(TaskState::kExecutorPending, session_.now());
  profiler_.state_change(task);
  submit_to(*slot, task);
}

void Agent::submit_to(BackendSlot& slot, Task& task) {
  const auto& cal = session_.calibration().core;
  // Interned here, not in add_backend, so setting up a stack allocates
  // nothing for it.
  if (slot.label == TaskLabels::kEmpty) {
    slot.label = session_.labels().intern(slot.backend->name());
  }
  task.set_backend(slot.label);
  task.begin_attempt();
  BackendSlot* slot_ptr = &slot;
  if (task.id() < tasks_.size()) {
    tasks_[task.id()].backend =
        static_cast<std::uint32_t>(slot_ptr - backends_.data());
  }
  slot.submit_server->submit(
      rng_.lognormal_mean_cv(slot.submit_cost, cal.jitter_cv),
      [this, slot_ptr, task = &task] {
        if (task->cancel_requested()) {
          task->set_error("canceled by user");
          finalize(*task, TaskState::kCanceled);
          return;
        }
        if (!slot_ptr->backend->healthy()) {
          // Backend died between routing and submit: retry the routing.
          task->advance(TaskState::kAgentScheduling, session_.now());
          execute(*task);
          return;
        }
        if (!slot_ptr->backend->self_scheduling()) {
          // The agent is the scheduler (PRRTE DVM model): place here,
          // waitlist if the span is full.
          place_and_launch(*slot_ptr, *task);
          return;
        }
        platform::LaunchRequest request;
        request.id = task->uid();
        request.demand = task->demand();
        request.duration = task->duration();
        request.modality = task->modality();
        request.fail_probability = task->fail_probability();
        request.gang = task->gang();
        request.gang_size = task->gang_size();
        request.priority = task->priority();
        obs_trace_.begin(obs::SpanType::kTaskLaunch,
                         slot_ptr->backend->name(), request.id);
        slot_ptr->backend->submit(std::move(request));
      });
}

bool Agent::place_and_launch(BackendSlot& slot, Task& task) {
  auto placement = slot.placer->place(task.demand());
  if (!placement) {
    slot.waitlist.push(sched::QueueEntry{task.id(), task.priority()});
    return false;
  }
  launch_placed(slot, task, std::move(*placement));
  return true;
}

void Agent::launch_placed(BackendSlot& slot, Task& task,
                          platform::Placement placement) {
  platform::LaunchRequest request;
  request.id = task.uid();
  request.demand = task.demand();
  request.duration = task.duration();
  request.modality = task.modality();
  request.fail_probability = task.fail_probability();
  request.placement = placement;
  request.preplaced = true;
  held_.insert_or_assign(task.id(), std::move(placement));
  obs_trace_.begin(obs::SpanType::kTaskLaunch, slot.backend->name(),
                   request.id);
  slot.backend->submit(std::move(request));
}

void Agent::release_held(BackendSlot& slot, TaskId id) {
  const auto it = held_.find(id);
  if (it == held_.end()) return;
  slot.placer->release(it->second);
  held_.erase(it);
  drain_waitlist(slot);
}

void Agent::drain_waitlist(BackendSlot& slot) {
  // The waitlist policy bounds how far past a blocked entry a drain pass
  // may look. The default FIFO policy is strict (head only): the first
  // task that does not fit blocks the rest, mirroring the agent
  // scheduler's FIFO admission. After every launch the scan restarts —
  // capacity changed.
  std::size_t i = 0;
  while (slot.backend->healthy() && i < slot.waitlist.scan_limit()) {
    auto placement =
        slot.placer->place(waitlisted(slot.waitlist.at(i)).demand());
    if (!placement) {
      ++i;
      continue;
    }
    Task& task = waitlisted(slot.waitlist.take(i));
    launch_placed(slot, task, std::move(*placement));
    i = 0;
  }
}

void Agent::handle_start(const std::string& uid) {
  TaskSlot* found = find(uid);
  if (found == nullptr) return;  // canceled meanwhile
  // The task lives in its manager's storage, so a start handler that grows
  // tasks_ leaves this reference valid.
  Task& task = *found->task;
  obs_trace_.end(obs::SpanType::kTaskLaunch, task.backend(), uid);
  obs_trace_.begin(obs::SpanType::kTaskRun, task.backend(), uid,
                   static_cast<double>(task.demand().cores));
  task.advance(TaskState::kRunning, session_.now());
  task.mark_launched();
  profiler_.launched(task);
  profiler_.state_change(task);
  for (const auto& handler : start_handlers_) handler(task);
}

void Agent::handle_completion(const platform::LaunchOutcome& outcome) {
  TaskSlot* found = find(outcome.id);
  if (found == nullptr) return;
  Task* task = found->task;
  if (obs_trace_) {
    // A launched attempt closes its run span; one that never started
    // (backend rejected/crashed pre-start) closes its launch span instead.
    // outcome.id is the task's uid: find() accepts only the canonical one.
    obs_trace_.end(task->launched() ? obs::SpanType::kTaskRun
                                    : obs::SpanType::kTaskLaunch,
                   task->backend(), outcome.id, outcome.success ? 1.0 : 0.0);
    obs_trace_.begin(obs::SpanType::kTaskCollect, "agent", outcome.id);
  }
  // Resources the agent placed for an externally scheduled backend are
  // returned the moment the backend reports completion.
  if (found->backend != kNoBackend) {
    BackendSlot& slot = backends_[found->backend];
    if (!held_.empty()) release_held(slot, task->id());
    if (!slot.backend->healthy() && !slot.waitlist.empty()) {
      // The backend died: re-route its waitlisted tasks (they never
      // launched, so this is failover, not a retry).
      for (auto& entry : slot.waitlist.drain()) {
        Task& waiting = waitlisted(entry);
        waiting.advance(TaskState::kAgentScheduling, session_.now());
        execute(waiting);
      }
    }
  }
  const auto& cal = session_.calibration().core;
  // Only a failed attempt carries its error, boxed, so the common success
  // closure fits Callback's inline buffer.
  auto error = outcome.success
                   ? nullptr
                   : std::make_unique<std::string>(outcome.error);
  collector_.submit(
      rng_.lognormal_mean_cv(cal.collect_cost, cal.jitter_cv),
      [this, task, error = std::move(error)]() mutable {
        if (obs_trace_) {
          obs_trace_.end(obs::SpanType::kTaskCollect, "agent", task->uid());
        }
        if (task->launched()) {
          profiler_.attempt_ended(*task);
        }
        if (task->cancel_requested()) {
          task->set_error("canceled by user");
          finalize(*task, TaskState::kCanceled);
          return;
        }
        if (!error) {
          if (task->output_mb() > 0.0) {
            task->advance(TaskState::kStagingOutput, session_.now());
            profiler_.state_change(*task);
            const double mb = task->output_mb();
            if (obs_trace_) {
              obs_trace_.begin(obs::SpanType::kTaskStageOut, "agent",
                               task->uid(), mb);
            }
            stager_out_.submit(staging_time(mb), [this, task] {
              if (obs_trace_) {
                obs_trace_.end(obs::SpanType::kTaskStageOut, "agent",
                               task->uid());
              }
              finalize(*task, TaskState::kDone);
            });
            return;
          }
          finalize(*task, TaskState::kDone);
          return;
        }
        task->set_error(std::move(*error));
        // Retry with budget, re-routing around unhealthy backends.
        const int budget = task->max_retries() + 1;
        if (!shut_down_ && task->attempts() < budget &&
            any_backend_for(*task)) {
          profiler_.retried(*task);
          task->clear_launched();
          task->advance(TaskState::kAgentScheduling, session_.now());
          profiler_.state_change(*task);
          execute(*task);
          return;
        }
        finalize(*task, TaskState::kFailed);
      });
}

bool Agent::any_backend_for(const Task& task) {
  for (auto& slot : backends_) {
    if (slot.ready && slot.backend->healthy() &&
        slot.backend->accepts(task.modality())) {
      return true;
    }
  }
  return false;
}

void Agent::finalize(Task& task, TaskState state) {
  // A retried task re-enters tasks_ only once; guard double finalize.
  const TaskId id = task.id();
  if (id < tasks_.size() && tasks_[id].task != nullptr) {
    tasks_[id] = TaskSlot{};
    if (!held_.empty()) held_.erase(id);
    --live_;
  } else if (is_final(task.state())) {
    return;
  }
  task.advance(state, session_.now());
  profiler_.state_change(task);
  profiler_.finalized(task, state == TaskState::kDone);
  if (final_handler_) final_handler_(task);
  for (const auto& listener : final_listeners_) listener(task);
  if (obs_trace_) {
    obs_trace_.instant(obs::SpanType::kStateCallback, "agent", task.uid(),
                       static_cast<double>(state));
  }
}

platform::TaskBackend* Agent::backend(const std::string& name) {
  for (auto& slot : backends_) {
    if (slot.backend->name() == name) return slot.backend.get();
  }
  return nullptr;
}

std::vector<std::string> Agent::backend_names() const {
  std::vector<std::string> names;
  names.reserve(backends_.size());
  for (const auto& slot : backends_) names.push_back(slot.backend->name());
  return names;
}

void Agent::shutdown() {
  shut_down_ = true;
  for (auto& slot : backends_) {
    // Waitlisted tasks never reached a backend; cancel them here.
    for (auto& entry : slot.waitlist.drain()) {
      Task& task = waitlisted(entry);
      task.set_error("agent shut down");
      finalize(task, TaskState::kCanceled);
    }
    if (slot.backend->healthy()) slot.backend->shutdown();
  }
}

}  // namespace flotilla::core
