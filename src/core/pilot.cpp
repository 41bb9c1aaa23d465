#include "core/pilot.hpp"

#include "dragon/dragon_backend.hpp"
#include "flux/flux_backend.hpp"
#include "prrte/dvm_backend.hpp"
#include "slurm/srun_backend.hpp"
#include "util/error.hpp"

namespace flotilla::core {

std::string_view to_string(PilotState state) {
  switch (state) {
    case PilotState::kNew:
      return "NEW";
    case PilotState::kLaunching:
      return "LAUNCHING";
    case PilotState::kActive:
      return "ACTIVE";
    case PilotState::kFailed:
      return "FAILED";
    case PilotState::kCanceled:
      return "CANCELED";
  }
  return "?";
}

Pilot::Pilot(Session& session, std::string uid, PilotDescription description,
             platform::NodeRange allocation)
    : session_(session),
      uid_(std::move(uid)),
      description_(std::move(description)),
      allocation_(allocation),
      srun_ceiling_(session.engine(),
                    session.cluster().spec().srun_concurrency_ceiling) {
  FLOT_CHECK(!description_.backends.empty(), "pilot needs >= 1 backend");
}

std::int64_t Pilot::total_cores() const {
  return session_.cluster().total_cores(allocation_);
}

std::int64_t Pilot::total_gpus() const {
  return session_.cluster().total_gpus(allocation_);
}

void Pilot::build_backends() {
  agent_ = std::make_unique<Agent>(session_, allocation_,
                                   description_.trace_tasks,
                                   description_.router);
  const auto& cal = session_.calibration();

  // Split the allocation: backends with explicit node counts take theirs
  // first, the rest share the remainder equally.
  int fixed = 0, flexible = 0;
  for (const auto& spec : description_.backends) {
    spec.nodes > 0 ? fixed += spec.nodes : ++flexible;
  }
  FLOT_CHECK(fixed <= allocation_.count, "backend node demands (", fixed,
             ") exceed pilot allocation (", allocation_.count, ")");
  const int share_pool = allocation_.count - fixed;
  FLOT_CHECK(flexible == 0 || share_pool >= flexible,
             "not enough nodes to share among backends");

  platform::NodeId next = allocation_.first;
  int flex_seen = 0;
  for (const auto& spec : description_.backends) {
    int count = spec.nodes;
    if (count == 0) {
      // Near-equal split of the shared pool.
      const int base = share_pool / flexible;
      const int extra = flex_seen < share_pool % flexible ? 1 : 0;
      count = base + extra;
      ++flex_seen;
    }
    const platform::NodeRange span{next, count};
    next += count;
    FLOT_CHECK(span.end() <= allocation_.end(),
               "backend span exceeds allocation");

    if (spec.type == "srun") {
      agent_->add_backend(
          std::make_unique<slurm::SrunBackend>(
              session_.engine(), session_.cluster(), span,
              cal.slurm, session_.seed(), &srun_ceiling_),
          cal.core.submit_cost_srun);
    } else if (spec.type == "flux") {
      agent_->add_backend(
          std::make_unique<flux::FluxBackend>(
              session_.engine(), session_.cluster(), span, spec.partitions,
              cal.flux, session_.seed(), &srun_ceiling_,
              spec.flux_backfill_depth),
          cal.core.submit_cost_flux);
    } else if (spec.type == "dragon") {
      agent_->add_backend(
          std::make_unique<dragon::DragonBackend>(
              session_.engine(), session_.cluster(), span, cal.dragon,
              session_.seed(), spec.partitions),
          cal.core.submit_cost_dragon);
    } else if (spec.type == "prrte") {
      agent_->add_backend(
          std::make_unique<prrte::DvmBackend>(
              session_.engine(), session_.cluster(), span, cal.prrte,
              session_.seed()),
          cal.core.submit_cost_prrte);
    } else {
      util::raise("unknown backend type '", spec.type, "'");
    }
  }
}

void Pilot::launch(ReadyHandler ready) {
  FLOT_CHECK(state_ == PilotState::kNew, "pilot ", uid_,
             " launched twice (state ", to_string(state_), ")");
  state_ = PilotState::kLaunching;
  build_backends();
  agent_->bootstrap([this, ready = std::move(ready)](bool ok,
                                                     std::string error) {
    state_ = ok ? PilotState::kActive : PilotState::kFailed;
    if (ready) ready(ok, std::move(error));
  });
}

void Pilot::cancel() {
  if (state_ == PilotState::kCanceled) return;
  if (agent_) agent_->shutdown();
  state_ = PilotState::kCanceled;
}

Pilot& PilotManager::submit(PilotDescription description) {
  FLOT_CHECK(description.nodes >= 1, "pilot needs >= 1 node");
  FLOT_CHECK(next_node_ + description.nodes <= session_.cluster().size(),
             "cluster exhausted: requested ", description.nodes,
             " nodes, free ", session_.cluster().size() - next_node_);
  const platform::NodeRange allocation{next_node_, description.nodes};
  next_node_ += description.nodes;
  pilots_.push_back(std::make_unique<Pilot>(
      session_, session_.ids().next("pilot", 4), std::move(description),
      allocation));
  return *pilots_.back();
}

}  // namespace flotilla::core
