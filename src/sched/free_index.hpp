// FreeResourceIndex: a max-free-capacity segment tree over a node range.
//
// The legacy placement path answered "next node with free cores/GPUs" by
// scanning nodes linearly — O(nodes) per placement attempt, which at the
// paper's Frontier scale (9,408 nodes, up to 229,376 tasks) puts the
// control plane on an O(nodes * tasks) path. The index keeps, for every
// binary segment of the range, the maximum free core count and maximum
// free GPU count of any node inside it, so a qualifying node is found by
// a successor search: start at the window's first leaf, climb until a
// segment to the right may match, and enter it left-first. The answer is
// the first qualifying node in ascending order, exactly what the linear
// scan returned. First-fit asks for the node right after the one it just
// took, so the typical answer is adjacent and costs O(1) amortized; a
// distant one costs an O(log n) climb plus an O(log n) descent.
//
//  - find_any (node with >0 free cores / >0 free GPUs, whichever the
//    demand still needs): the disjunctive test makes segment maxima
//    exact, so the descent never backtracks.
//  - find_fit (node with >= c cores AND >= g GPUs, the chunked multi-node
//    path): segment maxima can over-promise the conjunction (the cores
//    and GPU maxima may come from different nodes), so the descent
//    backtracks out of such segments and the worst case is linear.
//
// Updates are incremental: the index subscribes to Cluster's observer hook
// and, on every allocate or release — including allocations made behind
// the placer's back (tests, overlapping spans) — rewrites the node's leaf
// and its ancestors up to the first one whose pair of maxima did not
// change. That early exit is exact: an unchanged segment leaves every
// input of its ancestors unchanged. Across a contiguous multi-node
// allocation most refreshes stop within a level or two of the leaf.
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

  // Cluster::Observer: refresh the changed node's leaf and the ancestors
  // whose maxima move, and bump the release generation if the node gained
  // capacity.
  void node_changed(platform::NodeId node) override;

  // Moves whenever a node in the range ends up with more free cores or
  // more free GPUs than the index held for it; never on an allocation.
  std::uint64_t release_generation() const { return release_generation_; }

  // First node id in [from, limit) with free cores (if need_cores) or free
  // GPUs (if need_gpus); nullopt if none. Never backtracks (header note).
  std::optional<platform::NodeId> find_any(platform::NodeId from,
                                           platform::NodeId limit,
                                           bool need_cores,
                                           bool need_gpus) const;

  // First node id in [from, limit) with free_cores >= cores and
  // free_gpus >= gpus; nullopt if none. May backtrack (header note).
  std::optional<platform::NodeId> find_fit(platform::NodeId from,
                                           platform::NodeId limit, int cores,
                                           int gpus) const;

  // Segment maxima over the whole range (white-box test access).
  int max_free_cores() const { return max_[1].cores; }
  int max_free_gpus() const { return max_[1].gpus; }

 private:
  // Largest free core and GPU counts of any node in a segment; the two
  // may come from different nodes.
  struct Maxima {
    int cores = 0;
    int gpus = 0;
    friend bool operator==(const Maxima&, const Maxima&) = default;
  };

  const Maxima& at(int seg) const {
    return max_[static_cast<std::size_t>(seg)];
  }
  Maxima children_max(int seg) const;
  // First leaf offset in [lo, hi) whose segment passes `may_match`, or -1;
  // may_match(seg) must hold for a segment whenever it holds for a leaf
  // below it. 0 <= lo < hi <= range.count.
  template <typename MayMatch>
  int successor(int lo, int hi, MayMatch may_match) const;

  platform::Cluster& cluster_;
  platform::NodeRange range_;
  int leaves_ = 1;  // power-of-two leaf capacity >= range.count
  // 1-rooted binary heap layout; index 0 unused. Leaves beyond range.count
  // hold zero capacity so they never match a demand for capacity.
  std::vector<Maxima> max_;
  std::uint64_t release_generation_ = 0;
};

}  // namespace flotilla::sched
