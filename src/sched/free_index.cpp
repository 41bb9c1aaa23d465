#include "sched/free_index.hpp"

#include <algorithm>
#include <bit>

#include "util/error.hpp"

namespace flotilla::sched {

FreeResourceIndex::FreeResourceIndex(platform::Cluster& cluster,
                                     platform::NodeRange range)
    : cluster_(cluster), range_(range) {
  FLOT_CHECK(range.count >= 1, "free index needs a non-empty range");
  FLOT_CHECK(range.first >= 0 && range.end() <= cluster.size(),
             "free index range exceeds cluster: end=", range.end());
  while (leaves_ < range.count) leaves_ *= 2;
  max_.assign(static_cast<std::size_t>(2 * leaves_), Maxima{});
  for (int i = 0; i < range.count; ++i) {
    const auto& node = cluster_.node(range.first + i);
    max_[static_cast<std::size_t>(leaves_ + i)] = {node.free_cores(),
                                                   node.free_gpus()};
  }
  for (int seg = leaves_ - 1; seg >= 1; --seg) {
    max_[static_cast<std::size_t>(seg)] = children_max(seg);
  }
  cluster_.add_observer(this);
}

FreeResourceIndex::~FreeResourceIndex() { cluster_.remove_observer(this); }

FreeResourceIndex::Maxima FreeResourceIndex::children_max(int seg) const {
  const Maxima& left = at(2 * seg);
  const Maxima& right = at(2 * seg + 1);
  return {std::max(left.cores, right.cores), std::max(left.gpus, right.gpus)};
}

void FreeResourceIndex::node_changed(platform::NodeId node) {
  if (!range_.contains(node)) return;
  const auto& state = cluster_.node(node);
  int seg = leaves_ + (node - range_.first);
  const Maxima& leaf = at(seg);
  if (state.free_cores() > leaf.cores || state.free_gpus() > leaf.gpus) {
    ++release_generation_;
  }
  max_[static_cast<std::size_t>(seg)] = {state.free_cores(),
                                         state.free_gpus()};
  // Stop at the first ancestor whose pair of maxima did not move: its
  // parent's inputs are then unchanged too, and so on up to the root.
  for (seg /= 2; seg >= 1; seg /= 2) {
    const Maxima merged = children_max(seg);
    if (at(seg) == merged) break;
    max_[static_cast<std::size_t>(seg)] = merged;
  }
}

template <typename MayMatch>
int FreeResourceIndex::successor(int lo, int hi, MayMatch may_match) const {
  // In-order walk over the subtrees right of leaf `lo`: a segment that may
  // match is entered at its left child, and one that cannot (or whose
  // leaves all failed) hands over to the next segment to its right, found
  // by climbing past every right child at once: they are the trailing one
  // bits of `seg`, and a branch-free climb keeps the random-length ascent
  // off the branch predictor. `seg` covers the 2^height leaves starting at
  // (seg << height) - leaves_, so the walk ends at the first segment
  // starting at or past `hi`.
  unsigned seg = static_cast<unsigned>(leaves_ + lo);
  int height = 0;
  while (true) {
    if (may_match(static_cast<int>(seg))) {
      if (height == 0) return static_cast<int>(seg) - leaves_;
      seg *= 2;
      --height;
      continue;
    }
    const int climb = std::countr_one(seg);
    seg >>= climb;
    if (seg == 0) return -1;  // climbed past the root: nothing to the right
    height += climb;
    ++seg;
    if (static_cast<int>(seg << height) - leaves_ >= hi) return -1;
  }
}

std::optional<platform::NodeId> FreeResourceIndex::find_any(
    platform::NodeId from, platform::NodeId limit, bool need_cores,
    bool need_gpus) const {
  if (!need_cores && !need_gpus) return std::nullopt;
  const int lo = std::max(0, from - range_.first);
  const int hi = std::min(range_.count, limit - range_.first);
  if (lo >= hi) return std::nullopt;
  // Disjunctive: the maxima are exact, so every segment entered holds a
  // qualifying node and the walk never backtracks.
  const int found = successor(lo, hi, [&](int seg) {
    return (need_cores && at(seg).cores > 0) || (need_gpus && at(seg).gpus > 0);
  });
  if (found < 0) return std::nullopt;
  return range_.first + found;
}

std::optional<platform::NodeId> FreeResourceIndex::find_fit(
    platform::NodeId from, platform::NodeId limit, int cores,
    int gpus) const {
  const int lo = std::max(0, from - range_.first);
  const int hi = std::min(range_.count, limit - range_.first);
  if (lo >= hi) return std::nullopt;
  // Conjunctive: the cores and GPU maxima of a segment may come from
  // different nodes, so an entered segment is only a candidate and the
  // walk backtracks out of it when no leaf qualifies.
  const int found = successor(lo, hi, [&](int seg) {
    return at(seg).cores >= cores && at(seg).gpus >= gpus;
  });
  if (found < 0) return std::nullopt;
  return range_.first + found;
}

}  // namespace flotilla::sched
