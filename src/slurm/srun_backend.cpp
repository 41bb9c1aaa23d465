#include "slurm/srun_backend.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace flotilla::slurm {

struct SrunBackend::Srun {
  platform::LaunchRequest request;
  platform::Placement placement;
  double retry_delay = 0.0;
  sim::Time started = 0.0;
  bool running = false;
};

SrunBackend::SrunBackend(sim::Engine& engine, platform::Cluster& cluster,
                         platform::NodeRange allocation,
                         const platform::SlurmCalibration& cal,
                         std::uint64_t seed, sim::Resource* shared_ceiling)
    : engine_(engine),
      cal_(cal),
      rng_(seed, "srun"),
      ctld_(engine, cluster, allocation, cal, seed) {
  if (shared_ceiling) {
    ceiling_ = shared_ceiling;
  } else {
    owned_ceiling_ =
        std::make_unique<sim::Resource>(engine, cal.concurrency_ceiling);
    ceiling_ = owned_ceiling_.get();
  }
}

SrunBackend::~SrunBackend() = default;

void SrunBackend::bootstrap(ReadyHandler ready) {
  // srun needs no runtime bootstrap: Slurm is already running system-wide.
  // A small constant covers RP's executor component coming up.
  obs_trace_.begin(obs::SpanType::kBootstrap, name_, "");
  engine_.in(0.1, [this, ready = std::move(ready)] {
    healthy_ = true;
    obs_trace_.end(obs::SpanType::kBootstrap, name_, "");
    ready(true, "");
  });
}

void SrunBackend::submit(platform::LaunchRequest request) {
  FLOT_CHECK(healthy_, "submit to srun backend before bootstrap");
  if (!ctld_.can_ever_fit(request.demand)) {
    // Real srun rejects a step larger than its allocation at once instead
    // of polling for resources that can never free up. The task never
    // took a ceiling slot, so it bypasses finish().
    platform::LaunchOutcome outcome;
    outcome.id = std::move(request.id);
    outcome.success = false;
    outcome.error = "step can never fit the srun allocation";
    outcome.finished = engine_.now();
    if (completion_handler_) completion_handler_(outcome);
    return;
  }
  ++inflight_;
  auto srun = std::make_shared<Srun>();
  srun->request = std::move(request);
  srun->retry_delay = cal_.step_retry_initial;
  // The srun slot is taken for the whole task lifetime; the FIFO queue on
  // this resource is the system-level concurrency ceiling.
  obs_trace_.begin(obs::SpanType::kTaskQueueWait, "srun.ceiling",
                   srun->request.id);
  ceiling_->acquire(1, [this, srun] { start_srun(srun); });
}

void SrunBackend::start_srun(std::shared_ptr<Srun> srun) {
  obs_trace_.end(obs::SpanType::kTaskQueueWait, "srun.ceiling",
                 srun->request.id);
  if (shut_down_) {
    finish(std::move(srun), false, "backend shut down");
    return;
  }
  const double startup =
      rng_.lognormal_mean_cv(cal_.srun_client_startup, cal_.jitter_cv);
  engine_.in(startup, [this, srun = std::move(srun)]() mutable {
    attempt_step(std::move(srun));
  });
}

void SrunBackend::attempt_step(std::shared_ptr<Srun> srun) {
  if (shut_down_) {
    finish(std::move(srun), false, "backend shut down");
    return;
  }
  StepRequest step{srun->request.id, srun->request.demand};
  auto reply = [this, srun](std::optional<platform::Placement> placement) {
    handle_reply(srun, std::move(placement));
  };
  if (srun->retry_delay > cal_.step_retry_initial) {
    ctld_.retry_step(std::move(step), std::move(reply));
  } else {
    ctld_.request_step(std::move(step), std::move(reply));
  }
}

void SrunBackend::handle_reply(std::shared_ptr<Srun> srun,
                               std::optional<platform::Placement> placement) {
  if (shut_down_) {
    if (placement) ctld_.release(*placement);
    finish(std::move(srun), false, "backend shut down");
    return;
  }
  if (!placement) {
    // "Job step creation temporarily disabled, retrying": poll with
    // exponential backoff. The uniform factor desynchronizes waiting sruns.
    const double delay =
        srun->retry_delay * rng_.uniform(0.7, 1.3);
    srun->retry_delay =
        std::min(srun->retry_delay * cal_.step_retry_factor,
                 cal_.step_retry_max);
    engine_.in(delay, [this, srun = std::move(srun)]() mutable {
      attempt_step(std::move(srun));
    });
    return;
  }
  srun->placement = std::move(*placement);
  run_step(std::move(srun));
}

void SrunBackend::run_step(std::shared_ptr<Srun> srun) {
  // slurmstepd fork/exec happens in parallel on every target node; the step
  // starts when the slowest node is up, so one jittered sample stands in
  // for the max over nodes. Multi-node (MPI) steps additionally pay PMI
  // wireup through the controller-mediated path (§3.1).
  double spawn = rng_.lognormal_mean_cv(cal_.node_task_spawn, cal_.jitter_cv);
  const auto step_nodes = srun->placement.slices.size();
  if (step_nodes > 1) {
    spawn += rng_.lognormal_mean_cv(
        cal_.mpi_wireup_base +
            cal_.mpi_wireup_per_node * static_cast<double>(step_nodes),
        cal_.jitter_cv);
  }
  engine_.in(spawn, [this, srun = std::move(srun)]() mutable {
    srun->started = engine_.now();
    srun->running = true;
    if (start_handler_) start_handler_(srun->request.id);
    const auto duration = srun->request.duration;
    engine_.in(duration, [this, srun = std::move(srun)]() mutable {
      srun->running = false;
      const bool failed =
          srun->request.fail_probability > 0.0 &&
          rng_.bernoulli(srun->request.fail_probability);
      ctld_.complete_step(srun->placement, [this, srun, failed] {
        finish(srun, !failed,
               failed ? "task exited with non-zero status" : "");
      });
    });
  });
}

void SrunBackend::finish(std::shared_ptr<Srun> srun, bool success,
                         std::string error) {
  FLOT_CHECK(inflight_ > 0, "finish without inflight task");
  --inflight_;
  // Every finish path runs after the ceiling slot was granted (the srun
  // process exits here), so the slot is always returned exactly once.
  ceiling_->release(1);
  platform::LaunchOutcome outcome;
  outcome.id = srun->request.id;
  outcome.success = success;
  outcome.error = std::move(error);
  outcome.started = srun->started;
  outcome.finished = engine_.now();
  if (completion_handler_) completion_handler_(outcome);
}

void SrunBackend::shutdown() {
  shut_down_ = true;
  healthy_ = false;
}

}  // namespace flotilla::slurm
