#include "slurm/slurmctld.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace flotilla::slurm {

Slurmctld::Slurmctld(sim::Engine& engine, platform::Cluster& cluster,
                     platform::NodeRange allocation,
                     const platform::SlurmCalibration& cal,
                     std::uint64_t seed)
    : engine_(engine),
      cluster_(cluster),
      allocation_(allocation),
      cal_(cal),
      rng_(seed, "slurmctld"),
      rpc_create_(engine, 1),
      rpc_complete_(engine, 1),
      placer_(cluster, allocation) {
  FLOT_CHECK(allocation.count >= 1, "empty allocation");
  FLOT_CHECK(allocation.end() <= cluster.size(),
             "allocation exceeds cluster: end=", allocation.end());
}

std::int64_t Slurmctld::free_cores() const {
  return cluster_.free_cores(allocation_);
}

bool Slurmctld::can_ever_fit(const platform::ResourceDemand& demand) const {
  if (demand.cores > cluster_.total_cores(allocation_) ||
      demand.gpus > cluster_.total_gpus(allocation_)) {
    return false;
  }
  if (demand.cores_per_node <= 0) return true;
  // Tightly coupled steps take one chunk on each of
  // ceil(cores / cores_per_node) distinct nodes.
  const std::int64_t chunks =
      (demand.cores + demand.cores_per_node - 1) / demand.cores_per_node;
  return demand.cores_per_node <= cluster_.spec().cores_per_node &&
         chunks <= allocation_.count;
}

double Slurmctld::step_create_cost() const {
  const double n = static_cast<double>(allocation_.count);
  return cal_.ctl_step_base + cal_.ctl_step_per_node * n +
         cal_.ctl_step_per_node_sq * n * n;
}

void Slurmctld::request_step(StepRequest request, CreateReply reply) {
  const double cost =
      rng_.lognormal_mean_cv(step_create_cost(), cal_.jitter_cv);
  serve(cost, std::move(request), std::move(reply));
}

void Slurmctld::retry_step(StepRequest request, CreateReply reply) {
  const double cost = rng_.lognormal_mean_cv(
      cal_.ctl_retry_cost +
          cal_.ctl_retry_fraction * (step_create_cost() - cal_.ctl_step_base),
      cal_.jitter_cv);
  ++retries_served_;
  serve(cost, std::move(request), std::move(reply));
}

void Slurmctld::serve(double cost, StepRequest request, CreateReply reply) {
  rpc_create_.submit(cost, [this, request = std::move(request),
                     reply = std::move(reply)]() {
    auto placement = try_place(request.demand);
    if (placement) ++steps_created_;
    reply(std::move(placement));
  });
}

void Slurmctld::complete_step(platform::Placement placement,
                              std::function<void()> done) {
  const double cost =
      rng_.lognormal_mean_cv(cal_.ctl_complete_cost, cal_.jitter_cv);
  rpc_complete_.submit(cost, [this, placement = std::move(placement),
                     done = std::move(done)]() {
    release(placement);
    if (done) done();
  });
}

void Slurmctld::release(const platform::Placement& placement) {
  placer_.release(placement);
}

std::optional<platform::Placement> Slurmctld::try_place(
    const platform::ResourceDemand& demand) {
  return placer_.place(demand);
}

}  // namespace flotilla::slurm
