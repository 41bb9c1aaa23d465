// srun-based task backend: RP's default executor path on Slurm platforms.
//
// One srun invocation per task. The site-wide ceiling on concurrently active
// srun processes (112 on Frontier) is modeled as a FIFO resource held for
// the *entire* task lifetime — an srun process stays alive while its step
// runs — which is exactly what caps utilization at 50% on 4 nodes in
// Experiment srun (Fig 4).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "obs/tracer.hpp"
#include "platform/backend.hpp"
#include "platform/calibration.hpp"
#include "sim/random.hpp"
#include "sim/resource.hpp"
#include "slurm/slurmctld.hpp"

namespace flotilla::slurm {

class SrunBackend : public platform::TaskBackend {
 public:
  // `shared_ceiling` (optional) is the allocation-wide concurrent-srun
  // ceiling shared with other srun consumers (e.g. Flux instance launches);
  // when null the backend owns a private ceiling of cal.concurrency_ceiling.
  SrunBackend(sim::Engine& engine, platform::Cluster& cluster,
              platform::NodeRange allocation,
              const platform::SlurmCalibration& cal, std::uint64_t seed,
              sim::Resource* shared_ceiling = nullptr);
  ~SrunBackend() override;

  const std::string& name() const override { return name_; }
  bool accepts(platform::TaskModality modality) const override {
    return modality == platform::TaskModality::kExecutable;
  }
  platform::NodeRange span() const override { return ctld_.allocation(); }
  void bootstrap(ReadyHandler ready) override;
  void submit(platform::LaunchRequest request) override;
  void on_task_start(StartHandler handler) override {
    start_handler_ = std::move(handler);
  }
  void on_task_complete(CompletionHandler handler) override {
    completion_handler_ = std::move(handler);
  }
  void shutdown() override;
  bool healthy() const override { return healthy_; }
  std::size_t inflight() const override { return inflight_; }

  Slurmctld& controller() { return ctld_; }
  std::int64_t active_sruns() const { return ceiling_->in_use(); }

  // Adds the concurrent-srun ceiling occupancy: a restored backend must
  // hold exactly as many srun slots as the uninterrupted run.
  std::string restore_summary() const override {
    return TaskBackend::restore_summary() +
           "|active_sruns=" + std::to_string(active_sruns());
  }

  // Attaches structured tracing: bootstrap span, queue-wait spans on the
  // concurrent-srun ceiling, and controller placement attempts.
  void set_trace(obs::TraceHandle handle) override {
    obs_trace_ = handle;
    ctld_.set_trace(handle, "srun.ctld");
  }

 private:
  struct Srun;  // one live srun client

  void start_srun(std::shared_ptr<Srun> srun);
  void attempt_step(std::shared_ptr<Srun> srun);
  void handle_reply(std::shared_ptr<Srun> srun,
                    std::optional<platform::Placement> placement);
  void run_step(std::shared_ptr<Srun> srun);
  void finish(std::shared_ptr<Srun> srun, bool success, std::string error);

  sim::Engine& engine_;
  platform::SlurmCalibration cal_;
  sim::RngStream rng_;
  Slurmctld ctld_;
  std::unique_ptr<sim::Resource> owned_ceiling_;
  sim::Resource* ceiling_;  // concurrent-srun ceiling (owned or shared)
  obs::TraceHandle obs_trace_;
  std::string name_ = "srun";
  bool healthy_ = false;
  bool shut_down_ = false;
  std::size_t inflight_ = 0;
  StartHandler start_handler_;
  CompletionHandler completion_handler_;
};

}  // namespace flotilla::slurm
