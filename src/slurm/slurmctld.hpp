// Slurm controller model.
//
// Captures the two slurmctld behaviours that drive the paper's srun results:
//
//  1. Step-creation RPCs are *serialized* in the controller, with a service
//     time that grows with the allocation's node count (credential and
//     layout cover every node of the allocation). This produces the Fig 5(a)
//     shape: 152 tasks/s at 1 node, 61 at 4, declining further with scale.
//  2. When a step cannot get resources, the controller answers
//     "job step creation temporarily disabled" and the srun client retries
//     with exponential backoff — polling, not events. Each retry costs the
//     controller another RPC, so a backlog of waiting sruns degrades the
//     launch path for everyone (the erratic srun start rate of Fig 8 a,b).
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "obs/tracer.hpp"
#include "platform/calibration.hpp"
#include "platform/cluster.hpp"
#include "platform/placement.hpp"
#include "sched/placer.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/server.hpp"

namespace flotilla::slurm {

struct StepRequest {
  std::string id;
  platform::ResourceDemand demand;
};

class Slurmctld {
 public:
  // Reply carries the placement on success, or nullopt for "temporarily
  // disabled, retry later".
  using CreateReply =
      std::function<void(std::optional<platform::Placement>)>;

  Slurmctld(sim::Engine& engine, platform::Cluster& cluster,
            platform::NodeRange allocation,
            const platform::SlurmCalibration& cal, std::uint64_t seed);

  // First step-create RPC for a step (full-cost service).
  void request_step(StepRequest request, CreateReply reply);

  // Subsequent retry RPC (cheaper service, same placement logic).
  void retry_step(StepRequest request, CreateReply reply);

  // Step completion: retire the step and free its resources. `done` fires
  // after the controller has processed the completion.
  void complete_step(platform::Placement placement,
                     std::function<void()> done);

  platform::NodeRange allocation() const { return allocation_; }
  // False when `demand` could not be placed even on an idle allocation:
  // more cores or GPUs than it has, or a tightly coupled chunk larger than
  // a node or spread over more nodes than it has.
  bool can_ever_fit(const platform::ResourceDemand& demand) const;
  std::int64_t free_cores() const;
  std::uint64_t steps_created() const { return steps_created_; }
  std::uint64_t retries_served() const { return retries_served_; }

  // Placement over the allocation: packs `demand` greedily, or in
  // cores_per_node-sized node chunks for tightly coupled steps. Public for
  // white-box testing.
  std::optional<platform::Placement> try_place(
      const platform::ResourceDemand& demand);

  // Controller service time for one step-create over this allocation.
  double step_create_cost() const;

  void release(const platform::Placement& placement);

  // Attaches structured tracing: placement attempts under `component`.
  void set_trace(obs::TraceHandle handle, std::string component) {
    placer_.set_trace(handle, std::move(component));
  }

 private:
  void serve(double cost, StepRequest request, CreateReply reply);

  sim::Engine& engine_;
  platform::Cluster& cluster_;
  platform::NodeRange allocation_;
  platform::SlurmCalibration cal_;
  sim::RngStream rng_;
  // slurmctld handles step creation and step completion on different RPC
  // threads; creates serialize against each other (the launch bottleneck),
  // completions against each other, but not across the two.
  sim::Server rpc_create_;
  sim::Server rpc_complete_;
  sched::Placer placer_;  // rotating indexed first-fit over the allocation
  std::uint64_t steps_created_ = 0;
  std::uint64_t retries_served_ = 0;
};

}  // namespace flotilla::slurm
