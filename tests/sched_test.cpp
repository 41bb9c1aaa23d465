// Tests for the shared scheduling subsystem (src/sched/):
//
//  - queue policies (FIFO, priority-with-FIFO-tie-break, bounded backfill)
//  - the FreeResourceIndex segment tree, including coherence under
//    allocations made behind the placer's back (Cluster observer hook)
//  - a rejected indexed first-fit attempt touches no node (no observer
//    fires) yet moves the cursor exactly as the linear scan does
//  - behavior-identity: the indexed first-fit placer must produce
//    bit-for-bit the same placements as the legacy linear scan over
//    randomized allocate/release/demand sequences (golden traces depend
//    on this).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "platform/cluster.hpp"
#include "sched/free_index.hpp"
#include "sched/placement_policy.hpp"
#include "sched/placer.hpp"
#include "sched/queue.hpp"
#include "sim/random.hpp"

namespace flotilla::sched {
namespace {

using platform::Cluster;
using platform::NodeId;
using platform::NodeRange;
using platform::ResourceDemand;
using platform::frontier_spec;

QueueEntry entry(std::string id, int priority = 16) {
  QueueEntry e;
  e.id = std::move(id);
  e.priority = priority;
  return e;
}

std::vector<std::string> ids_of(const TaskQueue& queue) {
  std::vector<std::string> ids;
  for (const auto& e : queue.entries()) ids.push_back(e.id);
  return ids;
}

// ------------------------------------------------------- queue policies

TEST(QueuePolicy, FifoKeepsArrivalOrderRegardlessOfPriority) {
  TaskQueue queue(std::make_unique<FifoPolicy>());
  queue.push(entry("a", 1));
  queue.push(entry("b", 31));
  queue.push(entry("c", 16));
  EXPECT_EQ(ids_of(queue), (std::vector<std::string>{"a", "b", "c"}));
  // Strict head-of-line blocking: one entry per pass.
  EXPECT_EQ(queue.scan_limit(), 1u);
}

TEST(QueuePolicy, PriorityOrdersHigherFirstWithFifoTieBreak) {
  TaskQueue queue(std::make_unique<PriorityFifoPolicy>());
  queue.push(entry("low.1", 8));
  queue.push(entry("high.1", 24));
  queue.push(entry("mid.1", 16));
  queue.push(entry("high.2", 24));  // ties behind the earlier equal entry
  queue.push(entry("mid.2", 16));
  EXPECT_EQ(ids_of(queue), (std::vector<std::string>{
                               "high.1", "high.2", "mid.1", "mid.2", "low.1"}));
  EXPECT_EQ(queue.scan_limit(), 1u);
}

TEST(QueuePolicy, BackfillBoundsScanDepth) {
  TaskQueue queue(std::make_unique<BackfillPolicy>(4));
  for (int i = 0; i < 3; ++i) queue.push(entry("t" + std::to_string(i)));
  EXPECT_EQ(queue.scan_limit(), 3u);  // clamped to queue size
  for (int i = 3; i < 10; ++i) queue.push(entry("t" + std::to_string(i)));
  EXPECT_EQ(queue.scan_limit(), 4u);  // clamped to depth
  static_cast<BackfillPolicy&>(queue.policy()).set_depth(64);
  EXPECT_EQ(queue.scan_limit(), 10u);
  EXPECT_THROW(BackfillPolicy(0), util::Error);
}

TEST(QueuePolicy, TaskQueueTakeRemoveAndDrain) {
  TaskQueue queue(std::make_unique<FifoPolicy>());
  auto payload = std::make_shared<int>(7);
  auto e = entry("keep");
  e.payload = payload;
  queue.push(std::move(e));
  auto v = entry("victim");
  v.payload = std::make_shared<int>(1);
  queue.push(std::move(v));
  queue.push(entry("tail"));

  EXPECT_EQ(queue.remove("absent"), nullptr);
  EXPECT_NE(queue.remove("victim"), nullptr);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.at(0).id, "keep");

  auto taken = queue.take(1);
  EXPECT_EQ(taken.id, "tail");

  auto drained = queue.drain();
  EXPECT_TRUE(queue.empty());
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(*std::static_pointer_cast<int>(drained.front().payload), 7);
}

// ---------------------------------------------------- free-resource index

TEST(FreeResourceIndex, TracksDirectNodeAllocationsViaObserver) {
  Cluster cluster(frontier_spec(), 5);  // non-power-of-two leaf count
  FreeResourceIndex index(cluster, cluster.all_nodes());
  EXPECT_EQ(index.max_free_cores(), 56);
  EXPECT_EQ(index.max_free_gpus(), 8);

  // Allocations made behind any placer's back must still be visible.
  auto slice = cluster.node(2).allocate(56, 8);
  ASSERT_TRUE(slice.has_value());
  EXPECT_EQ(index.find_any(2, 3, true, false), std::nullopt);
  EXPECT_EQ(index.find_any(0, 5, true, true), std::optional<NodeId>(0));

  cluster.node(2).release(*slice);
  EXPECT_EQ(index.find_any(2, 3, true, false), std::optional<NodeId>(2));
}

TEST(FreeResourceIndex, FindAnyIsDisjunctive) {
  Cluster cluster(frontier_spec(), 4);
  FreeResourceIndex index(cluster, cluster.all_nodes());
  // Node 0: no cores left, GPUs free. Node 1: untouched.
  ASSERT_TRUE(cluster.node(0).allocate(56, 0).has_value());
  EXPECT_EQ(index.find_any(0, 4, true, false), std::optional<NodeId>(1));
  EXPECT_EQ(index.find_any(0, 4, false, true), std::optional<NodeId>(0));
  EXPECT_EQ(index.find_any(0, 4, true, true), std::optional<NodeId>(0));
}

TEST(FreeResourceIndex, FindFitIsConjunctiveAndOrdered) {
  Cluster cluster(frontier_spec(), 8);
  FreeResourceIndex index(cluster, cluster.all_nodes());
  // Fragment: nodes 0..5 keep 8 free cores, node 6 keeps 40, node 7 full.
  for (NodeId id = 0; id < 6; ++id) {
    ASSERT_TRUE(cluster.node(id).allocate(48, 0).has_value());
  }
  ASSERT_TRUE(cluster.node(6).allocate(16, 8).has_value());

  EXPECT_EQ(index.find_fit(0, 8, 40, 0), std::optional<NodeId>(6));
  EXPECT_EQ(index.find_fit(0, 8, 8, 1), std::optional<NodeId>(0));
  // Node 6 has the cores but no GPUs; only untouched node 7 satisfies both.
  EXPECT_EQ(index.find_fit(0, 8, 40, 1), std::optional<NodeId>(7));
  ASSERT_TRUE(cluster.node(7).allocate(56, 8).has_value());
  EXPECT_EQ(index.find_fit(0, 8, 40, 1), std::nullopt);
  EXPECT_EQ(index.find_fit(7, 8, 1, 0), std::nullopt);
}

TEST(FreeResourceIndex, RespectsSubrangeWindows) {
  Cluster cluster(frontier_spec(), 9);
  FreeResourceIndex index(cluster, NodeRange{3, 4});  // nodes 3..6
  EXPECT_EQ(index.find_any(0, 9, true, false), std::optional<NodeId>(3));
  EXPECT_EQ(index.find_any(5, 9, true, false), std::optional<NodeId>(5));
  EXPECT_EQ(index.find_any(7, 9, true, false), std::nullopt);
  ASSERT_TRUE(cluster.node(3).allocate(56, 8).has_value());
  EXPECT_EQ(index.find_fit(3, 7, 56, 0), std::optional<NodeId>(4));
}

// --------------------------------------------------- placement policies

TEST(PlacementPolicy, ChunkedScanHonorsRotatingCursor) {
  // The legacy chunked path ignored the cursor, so multi-node tasks piled
  // onto low-numbered nodes; the scan must start at the cursor like the
  // loose path does.
  Cluster cluster(frontier_spec(), 4);
  NodeId cursor = 2;
  auto first = linear_try_place(cluster, {0, 4}, {56, 0, 56}, &cursor);
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->slices.size(), 1u);
  EXPECT_EQ(first->slices[0].node, 2);
  EXPECT_EQ(cursor, 3);

  auto second = linear_try_place(cluster, {0, 4}, {112, 0, 56}, &cursor);
  ASSERT_TRUE(second.has_value());
  ASSERT_EQ(second->slices.size(), 2u);
  EXPECT_EQ(second->slices[0].node, 3);  // wraps after node 3
  EXPECT_EQ(second->slices[1].node, 0);
  EXPECT_EQ(cursor, 1);
}

TEST(PlacementPolicy, BestFitPacksTheBusiestQualifyingNode) {
  Cluster cluster(frontier_spec(), 3);
  ASSERT_TRUE(cluster.node(1).allocate(40, 0).has_value());
  BestFitPolicy policy;
  PlacementInput in{cluster, cluster.all_nodes()};
  auto placement = policy.place(in, {8, 0, 0});
  ASSERT_TRUE(placement.has_value());
  ASSERT_EQ(placement->slices.size(), 1u);
  EXPECT_EQ(placement->slices[0].node, 1);  // least free capacity fits
}

TEST(PlacementPolicy, GpuPackSteersByGpuDemand) {
  Cluster cluster(frontier_spec(), 3);
  ASSERT_TRUE(cluster.node(0).allocate(0, 6).has_value());
  GpuPackPolicy policy;
  PlacementInput in{cluster, cluster.all_nodes()};
  // CPU-only work goes to the GPU-poor node, preserving GPU capacity.
  auto cpu = policy.place(in, {4, 0, 0});
  ASSERT_TRUE(cpu.has_value());
  EXPECT_EQ(cpu->slices[0].node, 0);
  // GPU work goes to the GPU-rich node (id tie-break: 1 before 2).
  auto gpu = policy.place(in, {1, 1, 0});
  ASSERT_TRUE(gpu.has_value());
  EXPECT_EQ(gpu->slices[0].node, 1);
}

TEST(Placer, CountsAttemptsAndRotatesCursor) {
  Cluster cluster(frontier_spec(), 2);
  Placer placer(cluster, cluster.all_nodes());
  auto a = placer.place({1, 0, 0});
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(placer.cursor(), 1);
  auto b = placer.place({2 * 56, 0, 0});  // no longer fits
  EXPECT_FALSE(b.has_value());
  EXPECT_EQ(placer.stats().attempts, 2u);
  EXPECT_EQ(placer.stats().placed, 1u);
  EXPECT_EQ(placer.stats().rejected, 1u);
  placer.release(*a);
  EXPECT_TRUE(placer.place({2 * 56, 0, 0}).has_value());
}

// Counts Cluster::Observer notifications, i.e. node allocates/releases.
class CountingObserver : public Cluster::Observer {
 public:
  explicit CountingObserver(Cluster& cluster) : cluster_(cluster) {
    cluster_.add_observer(this);
  }
  ~CountingObserver() override { cluster_.remove_observer(this); }
  CountingObserver(const CountingObserver&) = delete;
  CountingObserver& operator=(const CountingObserver&) = delete;
  void node_changed(NodeId) override { ++changes; }
  int changes = 0;

 private:
  Cluster& cluster_;
};

std::vector<std::pair<int, int>> free_counts(const Cluster& cluster) {
  std::vector<std::pair<int, int>> counts;
  for (NodeId id = 0; id < cluster.size(); ++id) {
    counts.emplace_back(cluster.node(id).free_cores(),
                        cluster.node(id).free_gpus());
  }
  return counts;
}

// Six nodes, mirrored: node 5 keeps 6 cores and no GPUs free, and two
// single-core warm-up tasks land on nodes 0 and 1 and move the rotating
// cursor to node 2. Whole free nodes: 2, 3 and 4.
class RejectedFirstFit : public ::testing::Test {
 protected:
  void SetUp() override {
    for (Cluster* c : {&cluster_, &legacy_}) {
      ASSERT_TRUE(c->node(5).allocate(50, 8).has_value());
    }
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(placer_.place({1, 0, 0}).has_value());
      ASSERT_TRUE(
          linear_try_place(legacy_, range_, {1, 0, 0}, &cursor_).has_value());
    }
    ASSERT_EQ(placer_.cursor(), 2);
    ASSERT_EQ(cursor_, 2);
  }

  // A rejected attempt fires no node change and leaves every free count
  // as it was, while the linear scan probes and rolls back; both end with
  // the same cursor.
  void expect_rejected_untouched(const ResourceDemand& demand) {
    const auto before = free_counts(cluster_);
    CountingObserver changes(cluster_);
    CountingObserver legacy_changes(legacy_);
    EXPECT_FALSE(placer_.place(demand).has_value());
    EXPECT_FALSE(linear_try_place(legacy_, range_, demand, &cursor_));
    EXPECT_EQ(changes.changes, 0);
    EXPECT_GT(legacy_changes.changes, 0);  // the probe this avoids
    EXPECT_EQ(free_counts(cluster_), before);
    EXPECT_EQ(free_counts(legacy_), before);
    EXPECT_EQ(placer_.cursor(), cursor_);
  }

  Cluster cluster_{frontier_spec(), 6};
  Cluster legacy_{frontier_spec(), 6};
  NodeRange range_ = cluster_.all_nodes();
  Placer placer_{cluster_, range_};
  NodeId cursor_ = range_.first;
};

TEST_F(RejectedFirstFit, ChunkedDemandOneNodeShortTouchesNoNode) {
  // Four whole-node chunks, three whole nodes free: the legacy walk took
  // nodes 2, 3 and 4 before running out.
  expect_rejected_untouched({4 * 56, 0, 56});
  EXPECT_EQ(cursor_, 5);
}

TEST_F(RejectedFirstFit, LooseDemandShortOfCoresTouchesNoNode) {
  // One core more than the 2 * 55 + 3 * 56 + 6 free across the range.
  expect_rejected_untouched({2 * 55 + 3 * 56 + 6 + 1, 0, 0});
}

// --------------------------------------------- indexed/legacy identity

// Property: the indexed first-fit placer and the legacy linear scan,
// driven by the same randomized allocate/release/demand sequence on
// mirrored clusters, make identical decisions — same accept/reject, same
// slices (node, core mask, GPU mask), same cursor.
class PlacementIdentity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlacementIdentity, IndexedPlacerMatchesLegacyLinearScan) {
  sim::RngStream rng(GetParam());
  const int nodes = static_cast<int>(rng.uniform_int(1, 48));
  const bool rotate = rng.bernoulli(0.5);
  Cluster legacy(frontier_spec(), nodes);
  Cluster mirrored(frontier_spec(), nodes);
  const auto range = legacy.all_nodes();
  NodeId cursor = range.first;
  Placer placer(mirrored, range, {.rotate_cursor = rotate});

  std::vector<platform::Placement> legacy_held;
  std::vector<platform::Placement> mirrored_held;
  int placed = 0, refused = 0;
  for (int step = 0; step < 600; ++step) {
    if (legacy_held.empty() || rng.bernoulli(0.6)) {
      ResourceDemand demand;
      demand.cores = rng.uniform_int(0, 56 * 3);
      demand.gpus = rng.uniform_int(0, 12);
      if (rng.bernoulli(0.25)) demand.cores_per_node = 56;
      auto expected =
          linear_try_place(legacy, range, demand, rotate ? &cursor : nullptr);
      auto actual = placer.place(demand);
      ASSERT_EQ(expected.has_value(), actual.has_value())
          << "step " << step << " cores=" << demand.cores
          << " gpus=" << demand.gpus << " cpn=" << demand.cores_per_node;
      if (rotate) {
        ASSERT_EQ(placer.cursor(), cursor) << "step " << step;
      }
      if (!expected) {
        ++refused;
        continue;
      }
      ++placed;
      ASSERT_EQ(expected->slices.size(), actual->slices.size());
      for (std::size_t i = 0; i < expected->slices.size(); ++i) {
        ASSERT_EQ(expected->slices[i], actual->slices[i]) << "step " << step;
      }
      legacy_held.push_back(std::move(*expected));
      mirrored_held.push_back(std::move(*actual));
    } else {
      const auto victim = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(legacy_held.size()) - 1));
      legacy.release(legacy_held[victim]);
      placer.release(mirrored_held[victim]);
      legacy_held.erase(legacy_held.begin() +
                        static_cast<std::ptrdiff_t>(victim));
      mirrored_held.erase(mirrored_held.begin() +
                          static_cast<std::ptrdiff_t>(victim));
    }
  }
  // The sequence must exercise both outcomes to mean anything.
  EXPECT_GT(placed, 0);
  EXPECT_GT(refused, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacementIdentity,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace flotilla::sched
