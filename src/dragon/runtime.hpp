// Dragon runtime model.
//
// Captures the design point §3.2.2 describes: one *centralized* runtime
// spanning the whole span of nodes, dispatching tasks to per-node local
// services with no internal scheduler or partitioning. Characteristic
// behaviour reproduced here:
//
//  - high, node-count-independent dispatch rate at small scale (Fig 5c:
//    343/380 tasks/s at 4/16 nodes) because the dispatcher, not the nodes,
//    is the service center;
//  - throughput decline at larger node counts (204 tasks/s at 64 nodes)
//    because infrastructure traffic (heartbeats, channel management) flows
//    through the same dispatcher and its load grows with the node count;
//  - function tasks dispatch faster than process tasks (warm workers,
//    no process-group setup) — the hybrid experiment's Dragon lane.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "obs/tracer.hpp"
#include "platform/backend.hpp"
#include "platform/calibration.hpp"
#include "platform/cluster.hpp"
#include "sched/placer.hpp"
#include "sched/queue.hpp"
#include "sim/random.hpp"
#include "sim/server.hpp"

namespace flotilla::dragon {

struct TaskEvent {
  enum class Kind { kStart, kFinish } kind;
  std::string id;
  bool success = true;
  std::string note;
  sim::Time started = 0.0;
  sim::Time finished = 0.0;
};

class Runtime {
 public:
  using EventHandler = std::function<void(const TaskEvent&)>;

  Runtime(sim::Engine& engine, platform::Cluster& cluster,
          platform::NodeRange span, const platform::DragonCalibration& cal,
          std::uint64_t seed);

  // Brings up the runtime overlay (Fig 7: ~9 s). If `fail_silently` was
  // set, the runtime never reports readiness — exercising RP's startup
  // timeout (§3.2.2).
  void bootstrap(std::function<void()> ready);
  bool ready() const { return ready_; }
  sim::Time bootstrap_duration() const { return bootstrap_duration_; }
  bool fail_silently = false;

  void execute(platform::LaunchRequest request);

  void on_event(EventHandler handler) { event_handler_ = std::move(handler); }

  void crash(const std::string& reason);
  bool healthy() const { return healthy_; }
  platform::NodeRange span() const { return span_; }

  std::size_t pending() const { return pending_.size(); }
  std::size_t running() const { return active_.size(); }
  std::uint64_t completed() const { return completed_; }

  // Replaces the capacity queue's admission policy (default: strict FIFO,
  // Dragon has no internal scheduler). White-box hook for exercising
  // priority/backfill semantics through the shared QueuePolicy.
  void set_queue_policy(std::unique_ptr<sched::QueuePolicy> policy) {
    pending_.set_policy(std::move(policy));
  }

  // Swaps the span placer's policy (default rotating first-fit).
  void set_placement_policy(sched::PlacementPolicyKind kind) {
    placer_.set_policy(kind);
  }

  // Attaches structured tracing under `component` (e.g. "dragon.0"):
  // bootstrap span, capacity-queue waits, placement attempts.
  void set_trace(obs::TraceHandle handle, std::string component) {
    obs_trace_ = handle;
    trace_component_ = std::move(component);
    pending_.set_trace(handle, trace_component_);
    placer_.set_trace(handle, trace_component_);
  }

 private:
  struct Task {
    platform::LaunchRequest request;
    platform::Placement placement;
    sim::Time started = 0.0;
    bool running = false;
  };

  double infra_share() const;
  void dispatch(std::shared_ptr<Task> task);
  void start_task(std::shared_ptr<Task> task);
  void finish_task(std::shared_ptr<Task> task);
  void drain_pending();
  void emit_start(const std::string& id, sim::Time started);
  void emit_finish(std::shared_ptr<Task> task, bool success,
                   const std::string& note);

  sim::Engine& engine_;
  platform::Cluster& cluster_;
  platform::NodeRange span_;
  platform::DragonCalibration cal_;
  sim::RngStream rng_;
  sim::Server dispatcher_;
  sched::TaskQueue pending_;  // waiting for capacity
  std::unordered_map<std::string, std::shared_ptr<Task>> active_;
  sched::Placer placer_;  // rotating indexed first-fit over the span
  EventHandler event_handler_;
  obs::TraceHandle obs_trace_;
  std::string trace_component_ = "dragon";
  bool ready_ = false;
  bool bootstrap_started_ = false;
  bool healthy_ = true;
  std::uint64_t completed_ = 0;
  sim::Time bootstrap_requested_ = 0.0;
  sim::Time bootstrap_duration_ = 0.0;
};

}  // namespace flotilla::dragon
