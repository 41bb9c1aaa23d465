#include "sched/placement_policy.hpp"

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "util/error.hpp"

namespace flotilla::sched {

namespace {

using platform::Cluster;
using platform::NodeId;
using platform::NodeRange;
using platform::Placement;
using platform::ResourceDemand;

int chunk_count(const ResourceDemand& demand) {
  auto nodes_needed = static_cast<int>(
      (demand.cores + demand.cores_per_node - 1) / demand.cores_per_node);
  if (nodes_needed == 0 && demand.gpus > 0) nodes_needed = 1;
  return nodes_needed;
}

void advance_cursor(NodeId* cursor, NodeRange range, NodeId id) {
  if (cursor != nullptr) {
    *cursor = range.first + (id - range.first + 1) % range.count;
  }
}

// First-fit via the free index: identical node visit order to the linear
// scan — [base, range.end) then [range.first, base) — with each "next
// qualifying node" answered by an index query instead of a walk.
//
// Plan, then commit. The steps land on distinct nodes in visit order:
// each search resumes past the node just taken, and after the single wrap
// the window [range.first, base) holds none of the nodes taken before it.
// So allocating step i could never change the index's answer for step
// i + 1 (nor the free counts the loose path clamps to), and the plan can
// be found without allocating anything. A rejected attempt therefore
// touches no node; only a complete plan is allocated.
std::optional<Placement> indexed_first_fit(
    const PlacementInput& in, const ResourceDemand& demand,
    std::vector<FirstFitPolicy::Step>& plan) {
  const NodeRange range = in.range;
  const FreeResourceIndex& index = *in.index;
  plan.clear();
  const NodeId base = in.cursor != nullptr ? *in.cursor : range.first;
  NodeId pos = base;
  NodeId limit = range.end();
  bool wrapped = false;
  auto next_window = [&] {
    // The scan wraps exactly once: after exhausting [base, end) it
    // continues over [range.first, base), like the modular legacy walk.
    wrapped = true;
    pos = range.first;
    limit = base;
  };
  auto find = [&](auto query) {
    auto id = query(pos, limit);
    if (!id && !wrapped) {
      next_window();
      id = query(pos, limit);
    }
    return id;
  };
  auto take = [&](NodeId id, int cores, int gpus) {
    plan.push_back({id, cores, gpus});
    pos = id + 1;
    if (pos >= limit && !wrapped) next_window();
  };

  bool fits = true;
  if (demand.cores_per_node > 0) {
    std::int64_t cores_left = demand.cores;
    std::int64_t gpus_left = demand.gpus;
    int chunks_left = chunk_count(demand);
    while (chunks_left > 0) {
      const auto cores_here = static_cast<int>(
          std::min<std::int64_t>(demand.cores_per_node, cores_left));
      const auto gpus_here =
          static_cast<int>((gpus_left + chunks_left - 1) / chunks_left);
      const auto id = find([&](NodeId from, NodeId to) {
        return index.find_fit(from, to, cores_here, gpus_here);
      });
      if (!id) break;
      take(*id, cores_here, gpus_here);
      cores_left -= cores_here;
      gpus_left -= gpus_here;
      --chunks_left;
    }
    fits = chunks_left <= 0 && cores_left <= 0 && gpus_left <= 0;
  } else {
    std::int64_t cores_left = std::max<std::int64_t>(demand.cores, 0);
    std::int64_t gpus_left = std::max<std::int64_t>(demand.gpus, 0);
    while (cores_left > 0 || gpus_left > 0) {
      const auto id = find([&](NodeId from, NodeId to) {
        return index.find_any(from, to, cores_left > 0, gpus_left > 0);
      });
      if (!id) break;
      const auto& node = in.cluster.node(*id);
      const auto cores_here = static_cast<int>(
          std::min<std::int64_t>(node.free_cores(), cores_left));
      const auto gpus_here =
          static_cast<int>(std::min<std::int64_t>(node.free_gpus(), gpus_left));
      take(*id, cores_here, gpus_here);
      cores_left -= cores_here;
      gpus_left -= gpus_here;
    }
    fits = cores_left <= 0 && gpus_left <= 0;
  }

  // Placed or not, the cursor ends past the last node the scan took, as
  // linear_try_place leaves it after allocating and rolling back.
  if (!plan.empty()) advance_cursor(in.cursor, range, plan.back().node);
  if (!fits) return std::nullopt;
  Placement placement;
  placement.slices.reserve(plan.size());
  for (const auto& step : plan) {
    auto slice = in.cluster.node(step.node).allocate(step.cores, step.gpus);
    FLOT_CHECK(slice.has_value(), "free-index/allocate mismatch on node ",
               step.node);
    placement.slices.push_back(*slice);
  }
  return placement;
}

// Shared skeleton for the packing policies: place chunk by chunk (or unit
// by unit), each time choosing the candidate node with the smallest
// ordering key. `key` must be strictly ordering-stable (ties broken by
// node id) so runs stay deterministic.
template <typename Qualifies, typename Key>
std::optional<NodeId> select_node(const Cluster& cluster, NodeRange range,
                                  Qualifies qualifies, Key key) {
  std::optional<NodeId> best;
  std::tuple<int, int, NodeId> best_key{};
  for (NodeId id = range.first; id < range.end(); ++id) {
    const auto& node = cluster.node(id);
    if (!qualifies(node)) continue;
    const auto candidate_key = key(node, id);
    if (!best || candidate_key < best_key) {
      best = id;
      best_key = candidate_key;
    }
  }
  return best;
}

template <typename Key>
std::optional<Placement> place_by_key(const PlacementInput& in,
                                      const ResourceDemand& demand,
                                      Key key) {
  Placement placement;
  auto fail = [&]() -> std::optional<Placement> {
    in.cluster.release(placement);
    return std::nullopt;
  };

  if (demand.cores_per_node > 0) {
    std::int64_t cores_left = demand.cores;
    std::int64_t gpus_left = demand.gpus;
    int chunks_left = chunk_count(demand);
    while (chunks_left > 0) {
      const auto cores_here = static_cast<int>(
          std::min<std::int64_t>(demand.cores_per_node, cores_left));
      const auto gpus_here =
          static_cast<int>((gpus_left + chunks_left - 1) / chunks_left);
      const auto id = select_node(
          in.cluster, in.range,
          [&](const platform::Node& node) {
            return node.free_cores() >= cores_here &&
                   node.free_gpus() >= gpus_here;
          },
          key);
      if (!id) return fail();
      auto slice = in.cluster.node(*id).allocate(cores_here, gpus_here);
      FLOT_CHECK(slice.has_value(), "qualified node refused allocation");
      placement.slices.push_back(*slice);
      cores_left -= cores_here;
      gpus_left -= gpus_here;
      --chunks_left;
    }
    if (cores_left > 0 || gpus_left > 0) return fail();
    return placement;
  }

  std::int64_t cores_left = std::max<std::int64_t>(demand.cores, 0);
  std::int64_t gpus_left = std::max<std::int64_t>(demand.gpus, 0);
  while (cores_left > 0 || gpus_left > 0) {
    const auto id = select_node(
        in.cluster, in.range,
        [&](const platform::Node& node) {
          return (cores_left > 0 && node.free_cores() > 0) ||
                 (gpus_left > 0 && node.free_gpus() > 0);
        },
        key);
    if (!id) return fail();
    auto& node = in.cluster.node(*id);
    const auto cores_here =
        static_cast<int>(std::min<std::int64_t>(node.free_cores(), cores_left));
    const auto gpus_here =
        static_cast<int>(std::min<std::int64_t>(node.free_gpus(), gpus_left));
    auto slice = node.allocate(cores_here, gpus_here);
    FLOT_CHECK(slice.has_value(), "qualified node refused allocation");
    placement.slices.push_back(*slice);
    cores_left -= cores_here;
    gpus_left -= gpus_here;
  }
  return placement;
}

}  // namespace

std::optional<Placement> FirstFitPolicy::place(const PlacementInput& in,
                                               const ResourceDemand& demand) {
  if (in.index != nullptr) return indexed_first_fit(in, demand, plan_);
  return linear_try_place(in.cluster, in.range, demand, in.cursor);
}

std::optional<Placement> BestFitPolicy::place(const PlacementInput& in,
                                              const ResourceDemand& demand) {
  return place_by_key(in, demand,
                      [](const platform::Node& node, NodeId id) {
                        return std::tuple<int, int, NodeId>(
                            node.free_cores(), node.free_gpus(), id);
                      });
}

std::optional<Placement> GpuPackPolicy::place(const PlacementInput& in,
                                              const ResourceDemand& demand) {
  const bool wants_gpus = demand.gpus > 0;
  return place_by_key(
      in, demand, [wants_gpus](const platform::Node& node, NodeId id) {
        // CPU-only work drains GPU-poor nodes first; GPU work gravitates
        // to GPU-rich nodes. Ties fall back to ascending node order.
        const int gpu_key =
            wants_gpus ? -node.free_gpus() : node.free_gpus();
        return std::tuple<int, int, NodeId>(gpu_key, node.free_cores(), id);
      });
}

std::unique_ptr<PlacementPolicy> make_placement_policy(
    PlacementPolicyKind kind) {
  switch (kind) {
    case PlacementPolicyKind::kFirstFit:
      return std::make_unique<FirstFitPolicy>();
    case PlacementPolicyKind::kBestFit:
      return std::make_unique<BestFitPolicy>();
    case PlacementPolicyKind::kGpuPack:
      return std::make_unique<GpuPackPolicy>();
  }
  util::raise("unknown placement policy kind");
}

std::optional<Placement> linear_try_place(Cluster& cluster, NodeRange range,
                                          const ResourceDemand& demand,
                                          NodeId* cursor) {
  Placement placement;
  auto rollback = [&] { cluster.release(placement); };
  const NodeId base = cursor != nullptr ? *cursor : range.first;
  if (demand.cores_per_node > 0) {
    // Tightly coupled: all-or-nothing whole-chunk placement. The scan
    // honors the rotating cursor exactly like the loose path below, so
    // multi-node steps no longer pile onto the low-numbered nodes.
    std::int64_t cores_left = demand.cores;
    std::int64_t gpus_left = demand.gpus;
    int chunks_left = chunk_count(demand);
    for (int i = 0; i < range.count && chunks_left > 0; ++i) {
      const NodeId id = range.first + (base - range.first + i) % range.count;
      auto& node = cluster.node(id);
      const auto cores_here = static_cast<int>(
          std::min<std::int64_t>(demand.cores_per_node, cores_left));
      const auto gpus_here =
          static_cast<int>((gpus_left + chunks_left - 1) / chunks_left);
      auto slice = node.allocate(cores_here, gpus_here);
      if (!slice) continue;
      placement.slices.push_back(*slice);
      cores_left -= cores_here;
      gpus_left -= gpus_here;
      --chunks_left;
      advance_cursor(cursor, range, id);
    }
    if (chunks_left > 0 || cores_left > 0 || gpus_left > 0) {
      rollback();
      return std::nullopt;
    }
    return placement;
  }
  std::int64_t cores_left = std::max<std::int64_t>(demand.cores, 0);
  std::int64_t gpus_left = std::max<std::int64_t>(demand.gpus, 0);
  for (int i = 0; i < range.count; ++i) {
    if (cores_left == 0 && gpus_left == 0) break;
    const NodeId id = range.first + (base - range.first + i) % range.count;
    auto& node = cluster.node(id);
    const auto cores_here =
        static_cast<int>(std::min<std::int64_t>(node.free_cores(), cores_left));
    const auto gpus_here =
        static_cast<int>(std::min<std::int64_t>(node.free_gpus(), gpus_left));
    if (cores_here == 0 && gpus_here == 0) continue;
    auto slice = node.allocate(cores_here, gpus_here);
    FLOT_CHECK(slice.has_value(), "free-count/allocate mismatch on node ",
               id);
    placement.slices.push_back(*slice);
    cores_left -= cores_here;
    gpus_left -= gpus_here;
    advance_cursor(cursor, range, id);
  }
  if (cores_left > 0 || gpus_left > 0) {
    rollback();
    return std::nullopt;
  }
  return placement;
}

}  // namespace flotilla::sched
