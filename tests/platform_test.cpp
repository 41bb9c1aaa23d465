#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>

#include "platform/calibration.hpp"
#include "platform/cluster.hpp"
#include "platform/node.hpp"
#include "platform/placement.hpp"
#include "util/error.hpp"

namespace flotilla::platform {
namespace {

TEST(Node, AllocateAndReleaseRoundTrip) {
  Node node(3, 56, 8);
  EXPECT_TRUE(node.idle());
  auto slice = node.allocate(10, 2);
  ASSERT_TRUE(slice.has_value());
  EXPECT_EQ(slice->node, 3);
  EXPECT_EQ(slice->cores(), 10);
  EXPECT_EQ(slice->gpus(), 2);
  EXPECT_EQ(node.free_cores(), 46);
  EXPECT_EQ(node.free_gpus(), 6);
  node.release(*slice);
  EXPECT_TRUE(node.idle());
}

TEST(Node, DistinctAllocationsAreDisjoint) {
  Node node(0, 56, 8);
  const auto a = node.allocate(20, 4);
  const auto b = node.allocate(20, 4);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->core_mask & b->core_mask, 0u);
  EXPECT_EQ(a->gpu_mask & b->gpu_mask, 0);
}

TEST(Node, RefusesOverCommit) {
  Node node(0, 4, 1);
  EXPECT_TRUE(node.allocate(4, 0).has_value());
  EXPECT_FALSE(node.allocate(1, 0).has_value());
  EXPECT_FALSE(node.allocate(0, 2).has_value());
}

TEST(Node, ZeroDemandSucceedsWithEmptySlice) {
  Node node(0, 4, 2);
  const auto slice = node.allocate(0, 0);
  ASSERT_TRUE(slice.has_value());
  EXPECT_EQ(slice->cores(), 0);
  EXPECT_EQ(slice->gpus(), 0);
}

TEST(Node, DoubleFreeThrows) {
  Node node(0, 8, 2);
  const auto slice = node.allocate(2, 1);
  node.release(*slice);
  EXPECT_THROW(node.release(*slice), util::Error);
}

TEST(Node, ReleaseOnWrongNodeThrows) {
  Node a(0, 8, 2), b(1, 8, 2);
  const auto slice = a.allocate(2, 0);
  EXPECT_THROW(b.release(*slice), util::Error);
}

TEST(Node, SupportsFull64Cores) {
  Node node(0, 64, 0);
  const auto slice = node.allocate(64, 0);
  ASSERT_TRUE(slice.has_value());
  EXPECT_EQ(slice->cores(), 64);
  EXPECT_EQ(node.free_cores(), 0);
  node.release(*slice);
  EXPECT_EQ(node.free_cores(), 64);
}

// The bit-at-a-time selection Node::allocate must reproduce: the lowest
// `n` set bits of `mask`.
std::uint64_t lowest_bits_reference(std::uint64_t mask, int n) {
  std::uint64_t taken = 0;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t bit = mask & (~mask + 1);
    taken |= bit;
    mask ^= bit;
  }
  return taken;
}

TEST(Node, AllocateTakesLowestFreeBitsForEveryDemand) {
  std::mt19937_64 rng(20260);
  for (const int cores : {64, 56, 7}) {
    const std::uint64_t all_cores =
        cores == 64 ? ~0ULL : ((1ULL << cores) - 1);
    for (int trial = 0; trial < 200; ++trial) {
      // The first trial leaves the whole node free (the full 64-bit mask
      // at 64 cores); the rest free a random subset.
      const std::uint64_t core_free =
          trial == 0 ? all_cores : rng() & all_cores;
      const auto gpu_free =
          static_cast<std::uint8_t>(trial == 0 ? 0xFF : rng() & 0xFF);
      Node node(0, cores, 8);
      ASSERT_TRUE(node.allocate(cores, 8).has_value());
      node.release(NodeSlice{0, core_free, gpu_free});
      const int free_cores = std::popcount(core_free);
      const int free_gpus = std::popcount(static_cast<unsigned>(gpu_free));
      ASSERT_EQ(node.free_cores(), free_cores);
      for (int n = 0; n <= free_cores; ++n) {
        const auto slice = node.allocate(n, 0);
        ASSERT_TRUE(slice.has_value());
        ASSERT_EQ(slice->core_mask, lowest_bits_reference(core_free, n))
            << "cores=" << cores << " free=" << std::hex << core_free
            << std::dec << " n=" << n;
        node.release(*slice);
      }
      for (int n = 0; n <= free_gpus; ++n) {
        const auto slice = node.allocate(0, n);
        ASSERT_TRUE(slice.has_value());
        ASSERT_EQ(slice->gpu_mask, lowest_bits_reference(gpu_free, n))
            << "gpu free=" << int{gpu_free} << " n=" << n;
        node.release(*slice);
      }
      EXPECT_FALSE(node.allocate(free_cores + 1, 0).has_value());
      EXPECT_FALSE(node.allocate(0, free_gpus + 1).has_value());
    }
  }
}

TEST(Placement, AggregatesAcrossSlices) {
  Node n0(0, 56, 8), n1(1, 56, 8);
  Placement placement;
  placement.slices.push_back(*n0.allocate(56, 8));
  placement.slices.push_back(*n1.allocate(12, 0));
  EXPECT_EQ(placement.node_count(), 2);
  EXPECT_EQ(placement.total_cores(), 68);
  EXPECT_EQ(placement.total_gpus(), 8);
}

TEST(Cluster, FrontierProfileMatchesPaper) {
  // The paper: 4 nodes at SMT=1 yield 224 cores, 112-srun ceiling.
  const auto spec = frontier_spec();
  EXPECT_EQ(spec.cores_per_node, 56);
  EXPECT_EQ(spec.gpus_per_node, 8);
  EXPECT_EQ(spec.srun_concurrency_ceiling, 112);
  Cluster cluster(spec, 4);
  EXPECT_EQ(cluster.total_cores(cluster.all_nodes()), 224);
  EXPECT_EQ(cluster.total_gpus(cluster.all_nodes()), 32);
}

TEST(Cluster, FreeAggregatesFollowAllocations) {
  Cluster cluster(frontier_spec(), 2);
  const auto range = cluster.all_nodes();
  EXPECT_EQ(cluster.free_cores(range), 112);
  const auto slice = cluster.node(0).allocate(30, 4);
  ASSERT_TRUE(slice.has_value());
  EXPECT_EQ(cluster.free_cores(range), 82);
  EXPECT_EQ(cluster.free_gpus(range), 12);
}

TEST(Cluster, NodeIdOutOfRangeThrows) {
  Cluster cluster(frontier_spec(), 2);
  EXPECT_THROW(cluster.node(2), util::Error);
  EXPECT_THROW(cluster.node(-1), util::Error);
}

TEST(Cluster, PartitionSplitsEvenly) {
  const auto parts = Cluster::partition(NodeRange{0, 64}, 4);
  ASSERT_EQ(parts.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(parts[static_cast<size_t>(i)].count, 16);
    EXPECT_EQ(parts[static_cast<size_t>(i)].first, i * 16);
  }
}

TEST(Cluster, PartitionDistributesRemainderToFirst) {
  const auto parts = Cluster::partition(NodeRange{10, 10}, 3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], (NodeRange{10, 4}));
  EXPECT_EQ(parts[1], (NodeRange{14, 3}));
  EXPECT_EQ(parts[2], (NodeRange{17, 3}));
}

TEST(Cluster, PartitionMorePartsThanNodesThrows) {
  EXPECT_THROW(Cluster::partition(NodeRange{0, 2}, 3), util::Error);
}

TEST(NodeRange, ContainsAndEnd) {
  const NodeRange range{4, 3};
  EXPECT_EQ(range.end(), 7);
  EXPECT_TRUE(range.contains(4));
  EXPECT_TRUE(range.contains(6));
  EXPECT_FALSE(range.contains(7));
  EXPECT_FALSE(range.contains(3));
}

TEST(Calibration, FrontierAnchorsMatchFittedRates) {
  // Spot-check that the documented fits still hold: the controller service
  // model must reproduce 152 tasks/s at 1 node and 61 tasks/s at 4 nodes.
  const auto cal = frontier_calibration();
  const double rate1 =
      1.0 / (cal.slurm.ctl_step_base + 1 * cal.slurm.ctl_step_per_node);
  const double rate4 =
      1.0 / (cal.slurm.ctl_step_base + 4 * cal.slurm.ctl_step_per_node);
  EXPECT_NEAR(rate1, 152.0, 5.0);
  EXPECT_NEAR(rate4, 61.0, 3.0);
  // Single-node Flux spawn rate ~28 tasks/s; rank-0 cap near the observed
  // 744 tasks/s peak.
  EXPECT_NEAR(1.0 / cal.flux.exec_spawn, 28.6, 1.0);
  EXPECT_NEAR(1.0 / (cal.flux.ingest_cost + cal.flux.sched_cost), 800.0,
              100.0);
  // Bootstrap anchors (Fig 7).
  EXPECT_NEAR(cal.flux.bootstrap_base, 20.0, 3.0);
  EXPECT_NEAR(cal.dragon.bootstrap_base, 9.0, 1.0);
}

}  // namespace
}  // namespace flotilla::platform
