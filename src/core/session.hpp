// Session: the root object of a Flotilla run.
//
// Owns the simulation engine, the cluster model, the calibration profile,
// the obs tracer, and id generation — everything components need shared
// access to. Mirrors radical.pilot.Session as the umbrella for pilot and
// task managers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/task.hpp"
#include "obs/tracer.hpp"
#include "platform/calibration.hpp"
#include "platform/cluster.hpp"
#include "sim/engine.hpp"
#include "util/id_registry.hpp"

namespace flotilla::core {

class Session {
 public:
  // `num_nodes` sizes the modeled machine (the job allocation lives inside
  // it); `seed` drives every random stream deterministically.
  //
  // The whole stack runs serially on one engine, in (time, insertion
  // sequence) order.
  Session(platform::PlatformSpec spec, int num_nodes, std::uint64_t seed = 42,
          platform::Calibration calibration = platform::frontier_calibration());

  sim::Engine& engine() { return engine_; }
  platform::Cluster& cluster() { return cluster_; }
  const platform::Calibration& calibration() const { return calibration_; }
  util::IdRegistry& ids() { return ids_; }
  // Task labels and names, interned once per session (see TaskLabels).
  TaskLabels& labels() { return labels_; }

  // Structured tracing (src/obs). Off by default — paper-scale runs
  // launch hundreds of thousands of tasks. Enable *before* constructing
  // pilots/task managers: components capture their TraceHandle at
  // construction. The handle is null (all record calls no-ops) until then.
  obs::Tracer& enable_tracing(
      std::size_t capacity = obs::Tracer::kDefaultCapacity);
  obs::Tracer* tracer() { return tracer_.get(); }
  obs::TraceHandle trace_handle() { return obs::TraceHandle(tracer_.get()); }
  std::uint64_t seed() const { return seed_; }
  const std::string& uid() const { return uid_; }

  // Runs the simulation until the event queue drains (or `until`).
  void run(sim::Time until = sim::kInfiniteTime) { engine_.run(until); }
  sim::Time now() const { return engine_.now(); }

 private:
  sim::Engine engine_;
  platform::Cluster cluster_;
  platform::Calibration calibration_;
  std::unique_ptr<obs::Tracer> tracer_;
  util::IdRegistry ids_;
  TaskLabels labels_;
  std::uint64_t seed_;
  std::string uid_;
};

}  // namespace flotilla::core
