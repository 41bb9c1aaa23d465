// FreeResourceIndex: a max-free-capacity segment tree over a node range.
//
// The legacy placement path answered "next node with free cores/GPUs" by
// scanning nodes linearly — O(nodes) per placement attempt, which at the
// paper's Frontier scale (9,408 nodes, up to 229,376 tasks) puts the
// control plane on an O(nodes * tasks) path. The index keeps, for every
// binary segment of the range, the maximum free core count and maximum
// free GPU count of any node inside it, so a qualifying node is found by
// descending the tree:
//
//  - find_any (node with >0 free cores / >0 free GPUs, whichever the
//    demand still needs): exact O(log n) — a segment whose max passes the
//    disjunctive test is guaranteed to contain a qualifying node.
//  - find_fit (node with >= c cores AND >= g GPUs, the chunked multi-node
//    path): pruned left-first descent. Segment maxima can over-promise the
//    conjunction, so the worst case is linear, but pruning keeps typical
//    placements near O(log n) and the scan order identical to the legacy
//    linear walk.
//
// Updates are incremental: the index subscribes to Cluster's observer hook
// and refreshes one root-to-leaf path, O(log n), on every allocate or
// release — including allocations made behind the placer's back (tests,
// overlapping spans).
//
// The same hook keeps a release generation: a counter that moves whenever
// some node in the range gains free cores or GPUs, whoever released them
// (a placer, crash reaping, gang rollback, a test). While it stands still
// the free set has only shrunk, which is what Placer's rejection memo
// needs to answer a repeated demand without searching (docs/scheduling.md).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "platform/cluster.hpp"
#include "platform/types.hpp"

namespace flotilla::sched {

class FreeResourceIndex : public platform::Cluster::Observer {
 public:
  FreeResourceIndex(platform::Cluster& cluster, platform::NodeRange range);
  ~FreeResourceIndex() override;

  FreeResourceIndex(const FreeResourceIndex&) = delete;
  FreeResourceIndex& operator=(const FreeResourceIndex&) = delete;

  platform::NodeRange range() const { return range_; }

  // Cluster::Observer: refresh the changed node's root-to-leaf path, and
  // bump the release generation if the node gained capacity.
  void node_changed(platform::NodeId node) override;

  // Moves whenever a node in the range ends up with more free cores or
  // more free GPUs than the index held for it; never on an allocation.
  std::uint64_t release_generation() const { return release_generation_; }

  // First node id in [from, limit) with free cores (if need_cores) or free
  // GPUs (if need_gpus); nullopt if none. Exact O(log n).
  std::optional<platform::NodeId> find_any(platform::NodeId from,
                                           platform::NodeId limit,
                                           bool need_cores,
                                           bool need_gpus) const;

  // First node id in [from, limit) with free_cores >= cores and
  // free_gpus >= gpus; nullopt if none. Pruned descent (see header note).
  std::optional<platform::NodeId> find_fit(platform::NodeId from,
                                           platform::NodeId limit, int cores,
                                           int gpus) const;

  // Segment maxima over the whole range (white-box test access).
  int max_free_cores() const { return max_cores_[1]; }
  int max_free_gpus() const { return max_gpus_[1]; }

 private:
  int find_any_impl(int seg, int seg_lo, int seg_hi, int lo, int hi,
                    bool need_cores, bool need_gpus) const;
  int find_fit_impl(int seg, int seg_lo, int seg_hi, int lo, int hi,
                    int cores, int gpus) const;

  platform::Cluster& cluster_;
  platform::NodeRange range_;
  int leaves_ = 1;  // power-of-two leaf capacity >= range.count
  // 1-rooted binary heap layout; index 0 unused. Leaves beyond range.count
  // hold zero capacity so they never match.
  std::vector<int> max_cores_;
  std::vector<int> max_gpus_;
  std::uint64_t release_generation_ = 0;
};

}  // namespace flotilla::sched
