#include "prrte/dvm_backend.hpp"

#include "util/error.hpp"
#include "util/ordered.hpp"

namespace flotilla::prrte {

struct DvmBackend::Task {
  platform::LaunchRequest request;
  sim::Time started = 0.0;
};

DvmBackend::DvmBackend(sim::Engine& engine, platform::Cluster& cluster,
                       platform::NodeRange span,
                       const platform::PrrteCalibration& cal,
                       std::uint64_t seed)
    : engine_(engine),
      cluster_(cluster),
      span_(span),
      cal_(cal),
      rng_(seed, "prrte"),
      head_(engine, 1) {
  FLOT_CHECK(span.count >= 1, "dvm needs at least one node");
  daemons_.reserve(static_cast<std::size_t>(span.count));
  for (int i = 0; i < span.count; ++i) {
    daemons_.push_back(std::make_unique<sim::Server>(engine, 1));
  }
}

DvmBackend::~DvmBackend() = default;

void DvmBackend::bootstrap(ReadyHandler ready) {
  FLOT_CHECK(!ready_, "dvm bootstrapped twice");
  bootstrap_requested_ = engine_.now();
  obs_trace_.begin(obs::SpanType::kBootstrap, name_, "",
                   static_cast<double>(span_.count));
  // DVM startup: the prte daemons wire up once; afterwards per-task launch
  // is cheap (the DVM's whole point).
  const double duration = rng_.lognormal_mean_cv(
      cal_.dvm_startup_base + cal_.dvm_startup_per_node * span_.count,
      cal_.jitter_cv / 2);
  engine_.in(duration, [this, ready = std::move(ready)] {
    ready_ = true;
    healthy_ = true;
    bootstrap_duration_ = engine_.now() - bootstrap_requested_;
    obs_trace_.end(obs::SpanType::kBootstrap, name_, "");
    ready(true, "");
  });
}

void DvmBackend::submit(platform::LaunchRequest request) {
  FLOT_CHECK(ready_, "submit to dvm before bootstrap");
  FLOT_CHECK(request.preplaced,
             "prrte has no scheduler: requests must be preplaced by the "
             "agent (task ",
             request.id, ")");
  ++inflight_;
  auto task = std::make_shared<Task>();
  task->request = std::move(request);
  if (!healthy_) {
    finish(std::move(task), false, "dvm down");
    return;
  }
  // The head daemon relays the spawn request (cheap, serialized), then the
  // per-node daemons fork the ranks in parallel.
  head_.submit(rng_.lognormal_mean_cv(cal_.head_relay_cost, cal_.jitter_cv),
               [this, task = std::move(task)]() mutable {
                 if (!healthy_) {
                   finish(std::move(task), false, "dvm down");
                   return;
                 }
                 launch(std::move(task));
               });
}

void DvmBackend::launch(std::shared_ptr<Task> task) {
  const auto& placement = task->request.placement;
  auto remaining = std::make_shared<int>(static_cast<int>(
      placement.slices.empty() ? 1 : placement.slices.size()));
  double wireup = 0.0;
  if (placement.slices.size() > 1) {
    wireup = rng_.lognormal_mean_cv(
        cal_.mpi_wireup_base +
            cal_.mpi_wireup_per_node *
                static_cast<double>(placement.slices.size()),
        cal_.jitter_cv);
  }
  auto on_rank_up = [this, task, wireup, remaining] {
    if (--*remaining > 0) return;
    engine_.in(wireup, [this, task] {
      if (active_.count(task->request.id) == 0) return;  // crashed
      task->started = engine_.now();
      if (start_handler_) start_handler_(task->request.id);
      const sim::Time duration = task->request.duration;
      engine_.in(duration, [this, task] {
        if (active_.erase(task->request.id) == 0) return;
        const bool failed =
            task->request.fail_probability > 0.0 &&
            rng_.bernoulli(task->request.fail_probability);
        finish(task, !failed, failed ? "task exited non-zero" : "");
      });
    });
  };
  active_.emplace(task->request.id, task);
  if (placement.slices.empty()) {
    daemons_.front()->submit(
        rng_.lognormal_mean_cv(cal_.daemon_spawn_cost, cal_.jitter_cv),
        on_rank_up);
    return;
  }
  for (const auto& slice : placement.slices) {
    const auto local = static_cast<std::size_t>(slice.node - span_.first);
    FLOT_CHECK(local < daemons_.size(), "slice outside dvm span: node ",
               slice.node);
    daemons_[local]->submit(
        rng_.lognormal_mean_cv(cal_.daemon_spawn_cost, cal_.jitter_cv),
        on_rank_up);
  }
}

void DvmBackend::finish(std::shared_ptr<Task> task, bool success,
                        std::string error) {
  FLOT_CHECK(inflight_ > 0, "finish without inflight task");
  --inflight_;
  if (success) ++completed_;
  platform::LaunchOutcome outcome;
  outcome.id = task->request.id;
  outcome.success = success;
  outcome.error = std::move(error);
  outcome.started = task->started;
  outcome.finished = engine_.now();
  if (completion_handler_) completion_handler_(outcome);
}

void DvmBackend::crash(const std::string& reason) {
  if (!healthy_) return;
  healthy_ = false;
  auto victims = std::move(active_);
  active_.clear();
  // Sorted so the failure-event sequence is reproducible across runs.
  for (const auto& id : util::sorted_keys(victims)) {
    finish(victims.at(id), false, reason);
  }
}

void DvmBackend::shutdown() {
  if (healthy_) crash("backend shut down");
  ready_ = false;
}

}  // namespace flotilla::prrte
