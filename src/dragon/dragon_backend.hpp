// Dragon task backend: RP's Dragon executor + launcher (Fig 3).
//
// RP pushes serialized tasks to the Dragon runtime over ZeroMQ pipes and a
// watcher thread receives completion events asynchronously. Error handling
// follows §3.2.2: a startup timeout guards bootstrap, and a runtime crash
// fails affected tasks and marks the backend unhealthy so the agent can
// fail over.
//
// `partitions > 1` implements the paper's declared future work (§4.1.4:
// "Future work will investigate partitioned configurations using Dragon to
// enable concurrency and resilience similar to our approach with Flux"):
// multiple independent Dragon runtimes over disjoint node spans, each with
// its own dispatcher, removing the centralized bottleneck that bends
// throughput down at 64 nodes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dragon/runtime.hpp"
#include "platform/backend.hpp"

namespace flotilla::dragon {

class DragonBackend : public platform::TaskBackend {
 public:
  DragonBackend(sim::Engine& engine, platform::Cluster& cluster,
                platform::NodeRange span,
                const platform::DragonCalibration& cal, std::uint64_t seed,
                int partitions = 1);
  ~DragonBackend() override;

  const std::string& name() const override { return name_; }
  bool accepts(platform::TaskModality) const override {
    return true;  // Dragon executes both processes and functions
  }
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
  bool healthy() const override;
  std::size_t inflight() const override { return inflight_; }
  // Quiesce includes every runtime's capacity queue and active tasks.
  bool quiescent() const override;

  int partitions() const { return static_cast<int>(runtimes_.size()); }
  Runtime& runtime(int i = 0) { return *runtimes_.at(static_cast<size_t>(i)); }

  // Adds per-runtime health and capacity-queue depth: recovery must bring
  // back the same partition topology, including which runtimes were down.
  std::string restore_summary() const override {
    std::string out = TaskBackend::restore_summary();
    for (std::size_t i = 0; i < runtimes_.size(); ++i) {
      out += "|r" + std::to_string(i) + "=" +
             (runtimes_[i]->healthy() ? "up" : "down") + ":" +
             std::to_string(runtimes_[i]->pending());
    }
    return out;
  }

  // Fault injection: every runtime hangs during bootstrap; RP's startup
  // timeout must fire and report failure.
  void set_fail_bootstrap() {
    for (auto& runtime : runtimes_) runtime->fail_silently = true;
  }
  // Fault injection: crash a (or the only) runtime.
  void crash(const std::string& reason = "dragon runtime crashed",
             int instance = 0);

  sim::Time bootstrap_duration() const {
    return runtimes_.front()->bootstrap_duration();
  }

  // Forwards the tracer to every runtime. A single runtime traces as
  // "dragon"; partitioned runtimes trace as "dragon.0", "dragon.1", ...
  void set_trace(obs::TraceHandle handle) override {
    for (std::size_t i = 0; i < runtimes_.size(); ++i) {
      runtimes_[i]->set_trace(
          handle, runtimes_.size() == 1 ? name_
                                        : name_ + "." + std::to_string(i));
    }
  }

 private:
  int pick_runtime(const platform::ResourceDemand& demand) const;
  // Reports a task's outcome to the core.
  void complete(const std::string& id, bool success, std::string_view error,
                sim::Time started, sim::Time finished);

  sim::Engine& engine_;
  platform::NodeRange span_;
  std::string name_ = "dragon";
  std::vector<std::unique_ptr<Runtime>> runtimes_;
  int cores_per_node_;
  platform::DragonCalibration cal_;
  std::size_t inflight_ = 0;
  mutable int rr_cursor_ = 0;
  bool ready_ = false;
  bool ready_reported_ = false;
  StartHandler start_handler_;
  CompletionHandler completion_handler_;
};

}  // namespace flotilla::dragon
