#include "dragon/runtime.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace flotilla::dragon {

Runtime::Runtime(sim::Engine& engine, platform::Cluster& cluster,
                 platform::NodeRange span,
                 const platform::DragonCalibration& cal, std::uint64_t seed)
    : engine_(engine),
      cluster_(cluster),
      span_(span),
      cal_(cal),
      rng_(seed, "dragon"),
      dispatcher_(engine, 1),
      pending_(std::make_unique<sched::FifoPolicy>()),
      placer_(cluster, span) {
  FLOT_CHECK(span.count >= 1, "dragon runtime needs at least one node");
  FLOT_CHECK(span.end() <= cluster.size(), "span exceeds cluster");
}

void Runtime::bootstrap(std::function<void()> ready) {
  FLOT_CHECK(!bootstrap_started_, "dragon runtime bootstrapped twice");
  bootstrap_started_ = true;
  bootstrap_requested_ = engine_.now();
  // A hung bootstrap (fail_silently) leaves the span open on purpose: the
  // trace shows a bootstrap that never completed.
  obs_trace_.begin(obs::SpanType::kBootstrap, trace_component_, "",
                   static_cast<double>(span_.count));
  if (fail_silently) return;  // never comes up; RP's timeout must fire
  const double duration = rng_.lognormal_mean_cv(
      cal_.bootstrap_base + cal_.bootstrap_per_node * span_.count,
      cal_.jitter_cv / 2);
  engine_.in(duration, [this, ready = std::move(ready)] {
    ready_ = true;
    bootstrap_duration_ = engine_.now() - bootstrap_requested_;
    obs_trace_.end(obs::SpanType::kBootstrap, trace_component_, "");
    if (ready) ready();
  });
}

void Runtime::execute(platform::LaunchRequest request) {
  FLOT_CHECK(ready_, "execute on dragon runtime before bootstrap");
  if (!healthy_) {
    emit_finish(request.id, 0.0, false, "runtime down");
    return;
  }
  dispatch(tasks_.claim(Task{std::move(request), {}, 0.0, Phase::kWaiting}));
}

double Runtime::infra_share() const {
  // Heartbeats and channel-management traffic from every node multiplex
  // onto the same dispatcher event loop as task dispatch. Under processor
  // sharing, a fraction infra_cost*nodes/infra_period of the dispatcher is
  // lost to infrastructure, inflating effective task service times — the
  // centralized drag that bends throughput down at 64 nodes (Fig 5c).
  const double share = cal_.infra_cost * span_.count / cal_.infra_period;
  return std::min(share, 0.85);
}

void Runtime::dispatch(Slot slot) {
  // Every task goes through the central dispatcher — this serialization is
  // Dragon's scalability ceiling when launching external processes.
  const double base =
      tasks_[slot].request.modality == platform::TaskModality::kFunction
          ? cal_.dispatch_func
          : cal_.dispatch_exec;
  const double effective = base / (1.0 - infra_share());
  dispatcher_.submit(
      rng_.lognormal_mean_cv(effective, cal_.jitter_cv), [this, slot] {
        Task& task = tasks_[slot];
        if (!healthy_) {
          emit_finish(task.request.id, task.started, false, "runtime down");
          tasks_.release(slot);
          return;
        }
        auto placement = placer_.place(task.request.demand);
        if (!placement) {
          // No internal scheduler: the task simply waits for capacity,
          // entering the queue wherever its admission policy says.
          pending_.push(sched::QueueEntry{slot, task.request.priority});
          return;
        }
        task.placement = std::move(*placement);
        task.phase = Phase::kPlaced;
        ++placed_;
        double setup =
            task.request.modality == platform::TaskModality::kFunction
                ? cal_.func_start
                : cal_.node_spawn_exec;
        // Multi-node process groups pay wireup; Dragon has no optimized
        // PMI fabric, so this is its slowest launch path (§3.1).
        const auto group_nodes = task.placement.slices.size();
        if (group_nodes > 1) {
          setup += cal_.mpi_wireup_base +
                   cal_.mpi_wireup_per_node * static_cast<double>(group_nodes);
        }
        engine_.in(rng_.lognormal_mean_cv(setup, cal_.jitter_cv),
                   [this, slot] { start_task(slot); });
      });
}

void Runtime::start_task(Slot slot) {
  Task& task = tasks_[slot];
  if (task.phase != Phase::kPlaced) return;  // crashed meanwhile
  task.started = engine_.now();
  task.phase = Phase::kRunning;
  if (event_handler_) {
    event_handler_(TaskEvent{TaskEvent::Kind::kStart, task.request.id, true,
                             {}, task.started, 0.0});
  }
  engine_.in(task.request.duration, [this, slot] { finish_task(slot); });
}

void Runtime::finish_task(Slot slot) {
  Task& task = tasks_[slot];
  if (task.phase != Phase::kRunning) return;  // crash reaped it
  placer_.release(task.placement);
  --placed_;
  ++completed_;
  const bool failed = task.request.fail_probability > 0.0 &&
                      rng_.bernoulli(task.request.fail_probability);
  emit_finish(task.request.id, task.started, !failed,
              failed ? "worker exited non-zero" : "");
  tasks_.release(slot);
  drain_pending();
}

void Runtime::drain_pending() {
  // Freed capacity admits waiting tasks, oldest first; each re-dispatch
  // costs another pass through the dispatcher.
  if (pending_.empty()) return;
  dispatch(pending_.pop_front().slot);
}

void Runtime::emit_finish(const std::string& id, sim::Time started,
                          bool success, std::string_view note) {
  if (!event_handler_) return;
  event_handler_(TaskEvent{TaskEvent::Kind::kFinish, id, success, note,
                           started, engine_.now()});
}

void Runtime::crash(const std::string& reason) {
  if (!healthy_) return;
  healthy_ = false;
  for (const auto& entry : pending_.drain()) {
    Task& task = tasks_[entry.slot];
    task.phase = Phase::kReaped;
    emit_finish(task.request.id, task.started, false, reason);
  }
  // Placed tasks fail with the runtime; their slots stay claimed, so their
  // pending start and finish events find them reaped and do nothing. In
  // uid order, so the failure-event sequence is reproducible across runs.
  const auto placed = [](const Task& task) {
    return task.phase == Phase::kPlaced || task.phase == Phase::kRunning;
  };
  const auto uid = [](const Task& task) -> const std::string& {
    return task.request.id;
  };
  for (const Slot slot : tasks_.sorted_slots(placed, uid)) {
    Task& task = tasks_[slot];
    placer_.release(task.placement);
    task.placement.slices.clear();
    task.phase = Phase::kReaped;
    emit_finish(task.request.id, task.started, false, reason);
  }
  placed_ = 0;
}

}  // namespace flotilla::dragon
