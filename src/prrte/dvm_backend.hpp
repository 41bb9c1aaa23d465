// PRRTE DVM backend (§5 of the paper, and the RP+PRRTE study it cites).
//
// The PMIx Reference RunTime Environment runs a persistent Distributed
// Virtual Machine: one prte daemon per node, started once, after which
// tasks launch with minimal per-task overhead. Crucially, "PRRTE does not
// include an internal scheduler but instead delegates coordination and
// scheduling to external systems" — so this backend reports
// self_scheduling() == false and only accepts *preplaced* requests: the RP
// agent's scheduler decides placement, and the DVM merely spawns.
//
// This is the design point where "RP assumes full control over scheduling
// and coordination" (the paper's description of the Dragon pairing, which
// PRRTE pioneered); it exercises the agent-side scheduling path that the
// self-scheduling backends bypass.
//
// Each task is held by value in a slot table from submit until it
// finishes (or a crash reaps it); every event it schedules carries its slot.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/tracer.hpp"
#include "platform/backend.hpp"
#include "platform/calibration.hpp"
#include "platform/cluster.hpp"
#include "sim/random.hpp"
#include "sim/server.hpp"
#include "util/slot_table.hpp"

namespace flotilla::prrte {

class DvmBackend : public platform::TaskBackend {
 public:
  DvmBackend(sim::Engine& engine, platform::Cluster& cluster,
             platform::NodeRange span, const platform::PrrteCalibration& cal,
             std::uint64_t seed);

  const std::string& name() const override { return name_; }
  bool accepts(platform::TaskModality modality) const override {
    return modality == platform::TaskModality::kExecutable;
  }
  bool self_scheduling() const override { return false; }
  platform::NodeRange span() const override { return span_; }
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
  // Quiesce includes the active-task table (the agent holds the
  // placements, the DVM the spawned processes; both must drain together).
  bool quiescent() const override { return inflight_ == 0 && active_ == 0; }

  sim::Time bootstrap_duration() const { return bootstrap_duration_; }
  std::uint64_t completed() const { return completed_; }

  // Adds the spawn counter and active-task table size: the restored DVM
  // must have spawned exactly the journaled amount of work.
  std::string restore_summary() const override {
    return TaskBackend::restore_summary() +
           "|completed=" + std::to_string(completed_) +
           "|active=" + std::to_string(active_);
  }

  // Fault injection: the DVM head daemon dies.
  void crash(const std::string& reason = "dvm lost");

  // Attaches structured tracing: the DVM wireup bootstrap span. Placement
  // is traced agent-side (self_scheduling() == false).
  void set_trace(obs::TraceHandle handle) override { obs_trace_ = handle; }

 private:
  using Slot = std::uint32_t;
  // kRelaying: at the head daemon. kActive: spawning or running (the
  // active-task table). kReaped: failed by a crash.
  enum class Phase : std::uint8_t { kRelaying, kActive, kReaped };
  struct Task {
    platform::LaunchRequest request;
    sim::Time started = 0.0;
    int ranks_pending = 0;  // daemons yet to report their ranks up
    Phase phase = Phase::kRelaying;
  };

  void launch(Slot slot);
  void start(Slot slot);
  void complete(Slot slot);
  void finish(const Task& task, bool success, std::string error);

  sim::Engine& engine_;
  platform::Cluster& cluster_;
  platform::NodeRange span_;
  platform::PrrteCalibration cal_;
  sim::RngStream rng_;
  sim::Server head_;  // head daemon: serialized spawn-request handling
  std::vector<std::unique_ptr<sim::Server>> daemons_;  // per-node prted
  util::SlotTable<Task> tasks_;
  std::size_t active_ = 0;  // tasks in Phase::kActive
  obs::TraceHandle obs_trace_;
  std::string name_ = "prrte";
  bool ready_ = false;
  bool healthy_ = false;
  std::size_t inflight_ = 0;
  std::uint64_t completed_ = 0;
  sim::Time bootstrap_requested_ = 0.0;
  sim::Time bootstrap_duration_ = 0.0;
  StartHandler start_handler_;
  CompletionHandler completion_handler_;
};

}  // namespace flotilla::prrte
