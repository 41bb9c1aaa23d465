// Flux-based task backend: RP's Flux executor driving one or more
// concurrently running Flux instances over disjoint partitions (Fig 2).
//
// Instances are launched via srun, so each holds one slot of the
// allocation-wide concurrent-srun ceiling for its lifetime — at 1024 nodes
// with many partitions this coupling is part of why utilization sags in
// Experiment flux_n. Bootstrap happens concurrently across instances, so
// total overhead is not additive in the instance count (Fig 7).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "flux/instance.hpp"
#include "platform/backend.hpp"
#include "platform/calibration.hpp"
#include "sim/resource.hpp"

namespace flotilla::flux {

class FluxBackend : public platform::TaskBackend {
 public:
  // `backfill_depth` selects the scheduling policy of every instance
  // (§3.2.1: "first-come-first-served, backfilling, or customized
  // co-scheduling strategies"): 1 = strict FCFS, larger values allow that
  // many younger jobs to be scanned around a blocked queue head.
  FluxBackend(sim::Engine& engine, platform::Cluster& cluster,
              platform::NodeRange allocation, int partitions,
              const platform::FluxCalibration& cal, std::uint64_t seed,
              sim::Resource* srun_ceiling = nullptr, int backfill_depth = 64);
  ~FluxBackend() override;

  const std::string& name() const override { return name_; }
  bool accepts(platform::TaskModality modality) const override {
    return modality == platform::TaskModality::kExecutable;
  }
  platform::NodeRange span() const override { return allocation_; }
  bool supports_coscheduling() const override { return true; }
  void bootstrap(ReadyHandler ready) override;
  void submit(platform::LaunchRequest request) override;
  void on_task_start(StartHandler handler) override {
    start_handler_ = std::move(handler);
  }
  void on_task_complete(CompletionHandler handler) override {
    completion_handler_ = std::move(handler);
  }
  void shutdown() override;
  bool healthy() const override;
  std::size_t inflight() const override { return inflight_; }
  // Quiesce includes every instance's pending queue and running jobs.
  bool quiescent() const override;

  int partitions() const { return static_cast<int>(instances_.size()); }
  Instance& instance(int i) { return *instances_.at(static_cast<size_t>(i)); }

  // Adds per-instance broker health and queue depth: recovery must bring
  // back the same partition topology, including which brokers were down.
  std::string restore_summary() const override {
    std::string out = TaskBackend::restore_summary();
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      out += "|i" + std::to_string(i) + "=" +
             (instances_[i]->healthy() ? "up" : "down") + ":" +
             std::to_string(instances_[i]->queue_depth());
    }
    return out;
  }

  // Fault injection: simulates the i-th broker crashing.
  void crash_instance(int i, const std::string& reason = "broker lost");
  // Fault injection: makes bootstrap report failure.
  bool fail_bootstrap = false;

  // Per-instance bootstrap durations, available once ready (Fig 7).
  std::vector<sim::Time> bootstrap_durations() const;

  // Forwards the tracer to every instance (bootstrap spans, queue waits,
  // placement attempts per partition).
  void set_trace(obs::TraceHandle handle) override {
    for (auto& instance : instances_) instance->set_trace(handle);
  }

 private:
  void handle_event(const JobEvent& event);
  int pick_instance(const platform::ResourceDemand& demand,
                    const std::string& gang) const;
  // Reports a task's outcome to the core.
  void complete(const std::string& id, bool success, std::string_view error,
                sim::Time started, sim::Time finished);

  sim::Engine& engine_;
  platform::NodeRange allocation_;
  int cores_per_node_;
  std::string name_ = "flux";
  std::vector<std::unique_ptr<Instance>> instances_;
  sim::Resource* srun_ceiling_;  // may be null (no ceiling coupling)
  std::size_t inflight_ = 0;
  mutable int rr_cursor_ = 0;
  bool ready_ = false;
  bool shut_down_ = false;
  StartHandler start_handler_;
  CompletionHandler completion_handler_;
};

}  // namespace flotilla::flux
