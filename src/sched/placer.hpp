// Placer: the shared placement front-end every backend scheduler calls.
//
// Owns the placement policy, the rotating cursor (when the call site wants
// round-robin spreading) and the FreeResourceIndex, and keeps simple
// attempt counters so benches can report placement attempts/sec. One
// Placer per scheduling call site: flux::Instance (fixed origin, like
// fluxion), Slurmctld, dragon::Runtime and the agent's external-placement
// path (all rotating).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "obs/tracer.hpp"
#include "platform/cluster.hpp"
#include "platform/placement.hpp"
#include "sched/free_index.hpp"
#include "sched/placement_policy.hpp"

namespace flotilla::sched {

struct PlacerOptions {
  PlacementPolicyKind policy = PlacementPolicyKind::kFirstFit;
  // Rotate the scan origin past the last allocation so successive small
  // tasks spread across the range. Off: every scan starts at range.first
  // (Flux's fluxion matcher rescans its partition from the top).
  bool rotate_cursor = true;
  // Maintain the O(log n) free-resource index. Off: the first-fit policy
  // falls back to the legacy linear scan (reference/bench mode).
  bool use_index = true;
};

struct PlacerStats {
  std::uint64_t attempts = 0;
  std::uint64_t placed = 0;
  std::uint64_t rejected = 0;
};

class Placer {
 public:
  Placer(platform::Cluster& cluster, platform::NodeRange range,
         PlacerOptions options = {});

  Placer(const Placer&) = delete;
  Placer& operator=(const Placer&) = delete;

  // Attempts to place `demand` within the range. On success the slices
  // are already allocated; on failure nothing is held. A rejected
  // first-fit attempt on the index (the default) touches no node: it is
  // planned before anything is allocated. Best-fit, gpu-pack and the
  // index-less linear scan allocate slice by slice and roll back, so
  // their rejections still fire node changes.
  std::optional<platform::Placement> place(
      const platform::ResourceDemand& demand);

  // Frees every slice of `placement`; the index follows via the cluster's
  // observer hook.
  void release(const platform::Placement& placement);

  platform::NodeRange range() const { return range_; }
  platform::NodeId cursor() const { return cursor_; }
  const PlacerStats& stats() const { return stats_; }
  PlacementPolicy& policy() { return *policy_; }

  // Swaps the placement policy in place (cursor, index and stats are
  // kept). White-box knob for ablations and the fuzz harness; the
  // defaults every backend ships with stay first-fit.
  void set_policy(PlacementPolicyKind kind) {
    options_.policy = kind;
    policy_ = make_placement_policy(kind);
  }

  // Attaches structured tracing: every place() call records a
  // kPlacementAttempt instant under `component` (value: 1 placed,
  // 0 rejected), which OverheadReport turns into attempt counts.
  void set_trace(obs::TraceHandle handle, std::string component) {
    trace_ = handle;
    trace_component_ = std::move(component);
  }

 private:
  platform::Cluster& cluster_;
  platform::NodeRange range_;
  PlacerOptions options_;
  std::unique_ptr<PlacementPolicy> policy_;
  std::unique_ptr<FreeResourceIndex> index_;
  platform::NodeId cursor_;
  PlacerStats stats_;
  obs::TraceHandle trace_;
  std::string trace_component_;
};

}  // namespace flotilla::sched
