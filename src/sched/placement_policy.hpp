// PlacementPolicy: how a resource demand maps onto free nodes in a range.
//
// Extracted from platform/placement_algo.cpp, which every backend funneled
// into. Two demand shapes are supported (see docs/scheduling.md):
//
//  - tightly coupled (cores_per_node > 0): whole-chunk placement of
//    cores_per_node cores on each of ceil(cores/cores_per_node) nodes,
//    GPUs spread evenly across the chunk nodes; all-or-nothing.
//  - loosely coupled (cores_per_node == 0): greedy placement across as
//    many nodes as needed; all-or-nothing over the range.
//
// The default first-fit policy is bit-for-bit identical to the legacy
// linear scan (golden traces depend on it); best-fit and GPU-aware packing
// are alternative policies for ablations.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "platform/cluster.hpp"
#include "platform/placement.hpp"
#include "sched/free_index.hpp"

namespace flotilla::sched {

// Everything a policy may consult while placing. `cursor`, when non-null,
// is the rotating scan origin carried across calls (slurmctld, dragon, the
// agent's DVM path); null means every scan starts at range.first (Flux's
// fluxion matcher). `index`, when non-null, replaces linear scans with
// O(log n) free-capacity queries.
struct PlacementInput {
  platform::Cluster& cluster;
  platform::NodeRange range;
  platform::NodeId* cursor = nullptr;
  const FreeResourceIndex* index = nullptr;
};

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  virtual const char* name() const = 0;

  // Attempts to place `demand`. On success the slices are already
  // allocated on the nodes; on failure nothing is held. How a rejection
  // gets there differs: indexed first-fit plans the whole placement on
  // the free index before allocating, so a rejected attempt touches no
  // node (no Cluster::Observer fires); best-fit, gpu-pack and the linear
  // scan allocate slice by slice and roll back.
  virtual std::optional<platform::Placement> place(
      const PlacementInput& in, const platform::ResourceDemand& demand) = 0;
};

// First-fit round-robin: take nodes in scan order from the cursor (or
// range.first), wrapping once. The behavior-identical successor of the
// legacy linear scan; uses the index when one is supplied. With the
// index it plans, then commits: every step is found on the index first,
// and nodes are allocated only once the whole demand fits.
class FirstFitPolicy : public PlacementPolicy {
 public:
  const char* name() const override { return "first-fit"; }
  std::optional<platform::Placement> place(
      const PlacementInput& in,
      const platform::ResourceDemand& demand) override;

  // One planned slice: `cores`/`gpus` to take on `node` at commit.
  struct Step {
    platform::NodeId node;
    int cores;
    int gpus;
  };

 private:
  // The plan of the current attempt; a member so attempts reuse its
  // capacity instead of allocating one per call.
  std::vector<Step> plan_;
};

// Best-fit packing: repeatedly take the qualifying node with the least
// free capacity, concentrating small tasks on already-busy nodes so whole
// nodes stay free for tightly coupled chunks. Position-independent: the
// cursor is ignored. O(nodes) per chunk — an ablation policy, not the hot
// default.
class BestFitPolicy : public PlacementPolicy {
 public:
  const char* name() const override { return "best-fit"; }
  std::optional<platform::Placement> place(
      const PlacementInput& in,
      const platform::ResourceDemand& demand) override;
};

// GPU-aware packing: CPU-only demands prefer nodes with the fewest free
// GPUs (keeping GPU capacity unfragmented for accelerated tasks), GPU
// demands prefer nodes with the most. Position-independent; O(nodes) per
// chunk.
class GpuPackPolicy : public PlacementPolicy {
 public:
  const char* name() const override { return "gpu-pack"; }
  std::optional<platform::Placement> place(
      const PlacementInput& in,
      const platform::ResourceDemand& demand) override;
};

enum class PlacementPolicyKind { kFirstFit, kBestFit, kGpuPack };

std::unique_ptr<PlacementPolicy> make_placement_policy(
    PlacementPolicyKind kind);

// The legacy linear scan, relocated from platform/placement_algo.cpp and
// kept as the reference implementation the indexed first-fit path is
// property-tested against (tests/sched_test.cpp).
std::optional<platform::Placement> linear_try_place(
    platform::Cluster& cluster, platform::NodeRange range,
    const platform::ResourceDemand& demand,
    platform::NodeId* cursor = nullptr);

}  // namespace flotilla::sched
