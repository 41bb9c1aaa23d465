#include "core/agent.hpp"

#include <algorithm>

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
    slot.waitlist.set_trace(obs_trace_,
                            util::cat("agent.", name, ".waitlist"));
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
              session_.trace().record("agent", "bootstrap_done", "",
                                      any ? 1.0 : 0.0);
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

void Agent::execute(std::shared_ptr<Task> task) {
  FLOT_CHECK(active_, "agent is not active");
  FLOT_CHECK(task->state() == TaskState::kTmgrScheduling ||
                 task->state() == TaskState::kAgentScheduling,
             "unexpected task state ", to_string(task->state()));
  if (task->state() == TaskState::kAgentScheduling) {
    // Retry path: data is already staged in.
    enter_scheduling(std::move(task));
    return;
  }
  tasks_.emplace(task->uid(), task);
  if (task->cancel_requested()) {
    task->set_error("canceled by user");
    finalize(std::move(task), TaskState::kCanceled);
    return;
  }
  if (task->description().input_mb > 0.0) {
    task->advance(TaskState::kStagingInput, session_.now());
    profiler_.state_change(*task);
    const double mb = task->description().input_mb;
    obs_trace_.begin(obs::SpanType::kTaskStageIn, "agent", task->uid(), mb);
    stager_in_.submit(staging_time(mb),
                      [this, task = std::move(task)]() mutable {
                        obs_trace_.end(obs::SpanType::kTaskStageIn, "agent",
                                       task->uid());
                        task->advance(TaskState::kAgentScheduling,
                                      session_.now());
                        profiler_.state_change(*task);
                        enter_scheduling(std::move(task));
                      });
    return;
  }
  task->advance(TaskState::kAgentScheduling, session_.now());
  profiler_.state_change(*task);
  enter_scheduling(std::move(task));
}

void Agent::enter_scheduling(std::shared_ptr<Task> task) {
  const auto& cal = session_.calibration().core;
  obs_trace_.begin(obs::SpanType::kTaskSchedule, "agent", task->uid());
  scheduler_.submit(
      rng_.lognormal_mean_cv(cal.agent_sched_cost, cal.jitter_cv),
      [this, task = std::move(task)]() mutable { schedule(std::move(task)); });
}

Agent::BackendSlot* Agent::route(const Task& task) {
  const auto& desc = task.description();
  // An explicit, healthy hint always wins. Without one:
  //  - kStatic: first registered healthy backend accepting the modality
  //    (registration order encodes preference, e.g. flux for executables);
  //  - kAdaptive: the compatible backend with the least queued work.
  BackendSlot* best = nullptr;
  std::size_t best_load = 0;
  for (auto& slot : backends_) {
    if (!slot.ready || !slot.backend->healthy()) continue;
    if (!slot.backend->accepts(desc.modality)) continue;
    // Gang members need a backend with atomic co-scheduling.
    if (!desc.gang.empty() && !slot.backend->supports_coscheduling()) {
      continue;
    }
    if (slot.backend->name() == desc.backend_hint) return &slot;
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

bool Agent::cancel(const std::string& uid) {
  const auto it = tasks_.find(uid);
  if (it == tasks_.end()) return false;
  auto task = it->second;
  task->request_cancel();
  // Waitlisted tasks can be removed right away; everything else cancels at
  // its next pipeline step.
  for (auto& slot : backends_) {
    if (slot.waitlist.remove(uid) == nullptr) continue;
    task->set_error("canceled by user");
    finalize(std::move(task), TaskState::kCanceled);
    return true;
  }
  return true;
}

void Agent::schedule(std::shared_ptr<Task> task) {
  obs_trace_.end(obs::SpanType::kTaskSchedule, "agent", task->uid());
  if (shut_down_ || task->cancel_requested()) {
    task->set_error(shut_down_ ? "agent shut down" : "canceled by user");
    finalize(std::move(task), TaskState::kCanceled);
    return;
  }
  BackendSlot* slot = route(*task);
  if (!slot) {
    task->set_error(
        !task->description().gang.empty()
            ? std::string("no healthy backend supports co-scheduling")
            : util::cat("no healthy backend accepts task (modality=",
                        task->description().modality ==
                                platform::TaskModality::kFunction
                            ? "function"
                            : "executable",
                        ")"));
    finalize(std::move(task), TaskState::kFailed);
    return;
  }
  if (obs_trace_) {
    obs_trace_.instant(
        obs::SpanType::kRouting, "agent", task->uid(),
        static_cast<double>(slot - backends_.data()));
  }
  task->advance(TaskState::kExecutorPending, session_.now());
  profiler_.state_change(*task);
  submit_to(*slot, std::move(task));
}

void Agent::submit_to(BackendSlot& slot, std::shared_ptr<Task> task) {
  const auto& cal = session_.calibration().core;
  task->set_backend(slot.backend->name());
  task->begin_attempt();
  BackendSlot* slot_ptr = &slot;
  slot.submit_server->submit(
      rng_.lognormal_mean_cv(slot.submit_cost, cal.jitter_cv),
      [this, slot_ptr, task = std::move(task)]() mutable {
        if (task->cancel_requested()) {
          task->set_error("canceled by user");
          finalize(std::move(task), TaskState::kCanceled);
          return;
        }
        if (!slot_ptr->backend->healthy()) {
          // Backend died between routing and submit: retry the routing.
          task->advance(TaskState::kAgentScheduling, session_.now());
          execute(std::move(task));
          return;
        }
        if (!slot_ptr->backend->self_scheduling()) {
          // The agent is the scheduler (PRRTE DVM model): place here,
          // waitlist if the span is full.
          place_and_launch(*slot_ptr, std::move(task));
          return;
        }
        platform::LaunchRequest request;
        request.id = task->uid();
        request.demand = task->description().demand;
        request.duration = task->description().duration;
        request.modality = task->description().modality;
        request.fail_probability = task->description().fail_probability;
        request.gang = task->description().gang;
        request.gang_size = task->description().gang_size;
        request.priority = task->description().priority;
        obs_trace_.begin(obs::SpanType::kTaskLaunch,
                         slot_ptr->backend->name(), task->uid());
        slot_ptr->backend->submit(std::move(request));
      });
}

bool Agent::place_and_launch(BackendSlot& slot, std::shared_ptr<Task> task) {
  auto placement = slot.placer->place(task->description().demand);
  if (!placement) {
    sched::QueueEntry entry;
    entry.id = task->uid();
    entry.priority = task->description().priority;
    entry.demand = task->description().demand;
    entry.payload = std::move(task);
    slot.waitlist.push(std::move(entry));
    return false;
  }
  platform::LaunchRequest request;
  request.id = task->uid();
  request.demand = task->description().demand;
  request.duration = task->description().duration;
  request.modality = task->description().modality;
  request.fail_probability = task->description().fail_probability;
  request.placement = *placement;
  request.preplaced = true;
  slot.held.emplace(task->uid(), std::move(*placement));
  obs_trace_.begin(obs::SpanType::kTaskLaunch, slot.backend->name(),
                   task->uid());
  slot.backend->submit(std::move(request));
  return true;
}

Agent::BackendSlot* Agent::slot_of(const std::string& backend_name) {
  for (auto& slot : backends_) {
    if (slot.backend->name() == backend_name) return &slot;
  }
  return nullptr;
}

void Agent::release_held(BackendSlot& slot, const std::string& uid) {
  const auto it = slot.held.find(uid);
  if (it == slot.held.end()) return;
  slot.placer->release(it->second);
  slot.held.erase(it);
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
    auto placement = slot.placer->place(slot.waitlist.at(i).demand);
    if (!placement) {
      ++i;
      continue;
    }
    auto task =
        std::static_pointer_cast<Task>(slot.waitlist.take(i).payload);
    platform::LaunchRequest request;
    request.id = task->uid();
    request.demand = task->description().demand;
    request.duration = task->description().duration;
    request.modality = task->description().modality;
    request.fail_probability = task->description().fail_probability;
    request.placement = *placement;
    request.preplaced = true;
    slot.held.emplace(task->uid(), std::move(*placement));
    obs_trace_.begin(obs::SpanType::kTaskLaunch, slot.backend->name(),
                     task->uid());
    slot.backend->submit(std::move(request));
    i = 0;
  }
}

void Agent::handle_start(const std::string& uid) {
  const auto it = tasks_.find(uid);
  if (it == tasks_.end()) return;  // canceled meanwhile
  auto& task = it->second;
  obs_trace_.end(obs::SpanType::kTaskLaunch, task->backend(), uid);
  obs_trace_.begin(obs::SpanType::kTaskRun, task->backend(), uid,
                   static_cast<double>(task->description().demand.cores));
  task->advance(TaskState::kRunning, session_.now());
  task->mark_launched();
  profiler_.launched(*task);
  profiler_.state_change(*task);
  for (const auto& handler : start_handlers_) handler(*task);
}

void Agent::handle_completion(const platform::LaunchOutcome& outcome) {
  const auto it = tasks_.find(outcome.id);
  if (it == tasks_.end()) return;
  auto task = it->second;
  if (obs_trace_) {
    // A launched attempt closes its run span; one that never started
    // (backend rejected/crashed pre-start) closes its launch span instead.
    obs_trace_.end(task->launched() ? obs::SpanType::kTaskRun
                                    : obs::SpanType::kTaskLaunch,
                   task->backend(), task->uid(), outcome.success ? 1.0 : 0.0);
    obs_trace_.begin(obs::SpanType::kTaskCollect, "agent", task->uid());
  }
  // Resources the agent placed for an externally scheduled backend are
  // returned the moment the backend reports completion.
  if (BackendSlot* slot = slot_of(task->backend())) {
    release_held(*slot, task->uid());
    if (!slot->backend->healthy() && !slot->waitlist.empty()) {
      // The backend died: re-route its waitlisted tasks (they never
      // launched, so this is failover, not a retry).
      for (auto& entry : slot->waitlist.drain()) {
        auto waiting = std::static_pointer_cast<Task>(std::move(entry.payload));
        waiting->advance(TaskState::kAgentScheduling, session_.now());
        execute(std::move(waiting));
      }
    }
  }
  const auto& cal = session_.calibration().core;
  const bool success = outcome.success;
  std::string error = outcome.error;
  collector_.submit(
      rng_.lognormal_mean_cv(cal.collect_cost, cal.jitter_cv),
      [this, task = std::move(task), success,
       error = std::move(error)]() mutable {
        obs_trace_.end(obs::SpanType::kTaskCollect, "agent", task->uid());
        if (task->launched()) {
          profiler_.attempt_ended(*task);
        }
        if (task->cancel_requested()) {
          task->set_error("canceled by user");
          finalize(std::move(task), TaskState::kCanceled);
          return;
        }
        if (success) {
          if (task->description().output_mb > 0.0) {
            task->advance(TaskState::kStagingOutput, session_.now());
            profiler_.state_change(*task);
            const double mb = task->description().output_mb;
            obs_trace_.begin(obs::SpanType::kTaskStageOut, "agent",
                             task->uid(), mb);
            stager_out_.submit(staging_time(mb),
                               [this, task = std::move(task)]() mutable {
                                 obs_trace_.end(obs::SpanType::kTaskStageOut,
                                                "agent", task->uid());
                                 finalize(std::move(task), TaskState::kDone);
                               });
            return;
          }
          finalize(std::move(task), TaskState::kDone);
          return;
        }
        task->set_error(error);
        // Retry with budget, re-routing around unhealthy backends.
        const int budget = task->description().max_retries + 1;
        if (!shut_down_ && task->attempts() < budget &&
            any_backend_for(*task)) {
          profiler_.retried(*task);
          task->clear_launched();
          task->advance(TaskState::kAgentScheduling, session_.now());
          profiler_.state_change(*task);
          execute(std::move(task));
          return;
        }
        finalize(std::move(task), TaskState::kFailed);
      });
}

bool Agent::any_backend_for(const Task& task) {
  for (auto& slot : backends_) {
    if (slot.ready && slot.backend->healthy() &&
        slot.backend->accepts(task.description().modality)) {
      return true;
    }
  }
  return false;
}

void Agent::finalize(std::shared_ptr<Task> task, TaskState state) {
  // A retried task re-enters tasks_ only once; guard double finalize.
  if (tasks_.erase(task->uid()) == 0 && is_final(task->state())) return;
  task->advance(state, session_.now());
  profiler_.state_change(*task);
  profiler_.finalized(*task, state == TaskState::kDone);
  if (final_handler_) final_handler_(*task);
  for (const auto& listener : final_listeners_) listener(*task);
  obs_trace_.instant(obs::SpanType::kStateCallback, "agent", task->uid(),
                     static_cast<double>(state));
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
      auto task = std::static_pointer_cast<Task>(std::move(entry.payload));
      task->set_error("agent shut down");
      finalize(std::move(task), TaskState::kCanceled);
    }
    if (slot.backend->healthy()) slot.backend->shutdown();
  }
}

}  // namespace flotilla::core
