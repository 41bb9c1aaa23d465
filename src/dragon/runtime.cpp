#include "dragon/runtime.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/ordered.hpp"

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
  auto task = std::make_shared<Task>();
  task->request = std::move(request);
  if (!healthy_) {
    emit_finish(task, false, "runtime down");
    return;
  }
  dispatch(std::move(task));
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

void Runtime::dispatch(std::shared_ptr<Task> task) {
  // Every task goes through the central dispatcher — this serialization is
  // Dragon's scalability ceiling when launching external processes.
  const double base = task->request.modality == platform::TaskModality::kFunction
                          ? cal_.dispatch_func
                          : cal_.dispatch_exec;
  const double effective = base / (1.0 - infra_share());
  dispatcher_.submit(
      rng_.lognormal_mean_cv(effective, cal_.jitter_cv),
      [this, task = std::move(task)]() mutable {
        if (!healthy_) {
          emit_finish(task, false, "runtime down");
          return;
        }
        auto placement = placer_.place(task->request.demand);
        if (!placement) {
          // No internal scheduler: the task simply waits for capacity,
          // entering the queue wherever its admission policy says.
          sched::QueueEntry entry;
          entry.id = task->request.id;
          entry.priority = task->request.priority;
          entry.demand = task->request.demand;
          entry.payload = std::move(task);
          pending_.push(std::move(entry));
          return;
        }
        task->placement = std::move(*placement);
        active_.emplace(task->request.id, task);
        double setup =
            task->request.modality == platform::TaskModality::kFunction
                ? cal_.func_start
                : cal_.node_spawn_exec;
        // Multi-node process groups pay wireup; Dragon has no optimized
        // PMI fabric, so this is its slowest launch path (§3.1).
        const auto group_nodes = task->placement.slices.size();
        if (group_nodes > 1) {
          setup += cal_.mpi_wireup_base +
                   cal_.mpi_wireup_per_node * static_cast<double>(group_nodes);
        }
        engine_.in(rng_.lognormal_mean_cv(setup, cal_.jitter_cv),
                   [this, task = std::move(task)]() mutable {
                     start_task(std::move(task));
                   });
      });
}

void Runtime::start_task(std::shared_ptr<Task> task) {
  if (active_.count(task->request.id) == 0) return;  // crashed meanwhile
  task->started = engine_.now();
  task->running = true;
  emit_start(task->request.id, task->started);
  // Hoisted: the lambda capture moves `task`, and argument evaluation
  // order is unspecified.
  const sim::Time duration = task->request.duration;
  engine_.in(duration, [this, task = std::move(task)]() mutable {
    finish_task(std::move(task));
  });
}

void Runtime::finish_task(std::shared_ptr<Task> task) {
  if (active_.erase(task->request.id) == 0) return;  // crash reaped it
  placer_.release(task->placement);
  task->placement.slices.clear();
  ++completed_;
  const bool failed = task->request.fail_probability > 0.0 &&
                      rng_.bernoulli(task->request.fail_probability);
  emit_finish(task, !failed, failed ? "worker exited non-zero" : "");
  drain_pending();
}

void Runtime::drain_pending() {
  // Freed capacity admits waiting tasks, oldest first; each re-dispatch
  // costs another pass through the dispatcher.
  if (pending_.empty()) return;
  auto task = std::static_pointer_cast<Task>(pending_.pop_front().payload);
  dispatch(std::move(task));
}

void Runtime::emit_start(const std::string& id, sim::Time started) {
  if (!event_handler_) return;
  TaskEvent event{TaskEvent::Kind::kStart, id, true, "", started, 0.0};
  event_handler_(event);
}

void Runtime::emit_finish(std::shared_ptr<Task> task, bool success,
                          const std::string& note) {
  if (!event_handler_) return;
  TaskEvent event{TaskEvent::Kind::kFinish, task->request.id, success, note,
                  task->started, engine_.now()};
  event_handler_(event);
}

void Runtime::crash(const std::string& reason) {
  if (!healthy_) return;
  healthy_ = false;
  for (auto& entry : pending_.drain()) {
    emit_finish(std::static_pointer_cast<Task>(entry.payload), false, reason);
  }
  // Sorted so the failure-event sequence is reproducible across runs.
  for (const auto& id : util::sorted_keys(active_)) {
    auto& task = active_.at(id);
    placer_.release(task->placement);
    task->placement.slices.clear();
    emit_finish(task, false, reason);
  }
  active_.clear();
}

}  // namespace flotilla::dragon
