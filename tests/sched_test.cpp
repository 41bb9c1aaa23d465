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
//  - the fixed-origin rejection memo: the release generation moves only
//    when capacity grows, a memo hit is counted and traced as a rejected
//    attempt, rotating and non-first-fit placers keep no memo, and the
//    memo agrees with a full search on every attempt.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/tracer.hpp"
#include "platform/cluster.hpp"
#include "sched/free_index.hpp"
#include "sched/placement_policy.hpp"
#include "sched/placer.hpp"
#include "sched/queue.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"

namespace flotilla::sched {
namespace {

using platform::Cluster;
using platform::NodeId;
using platform::NodeRange;
using platform::ResourceDemand;
using platform::frontier_spec;

QueueEntry entry(std::uint32_t slot, int priority = 16) {
  return QueueEntry{slot, priority};
}

std::vector<std::uint32_t> slots_of(const TaskQueue& queue) {
  std::vector<std::uint32_t> slots;
  for (const auto& e : queue.entries()) slots.push_back(e.slot);
  return slots;
}

// ------------------------------------------------------- queue policies

TEST(QueuePolicy, FifoKeepsArrivalOrderRegardlessOfPriority) {
  TaskQueue queue(std::make_unique<FifoPolicy>());
  queue.push(entry(0, 1));
  queue.push(entry(1, 31));
  queue.push(entry(2, 16));
  EXPECT_EQ(slots_of(queue), (std::vector<std::uint32_t>{0, 1, 2}));
  // Strict head-of-line blocking: one entry per pass.
  EXPECT_EQ(queue.scan_limit(), 1u);
}

TEST(QueuePolicy, PriorityOrdersHigherFirstWithFifoTieBreak) {
  TaskQueue queue(std::make_unique<PriorityFifoPolicy>());
  enum : std::uint32_t { kLow1, kHigh1, kMid1, kHigh2, kMid2 };
  queue.push(entry(kLow1, 8));
  queue.push(entry(kHigh1, 24));
  queue.push(entry(kMid1, 16));
  queue.push(entry(kHigh2, 24));  // ties behind the earlier equal entry
  queue.push(entry(kMid2, 16));
  EXPECT_EQ(slots_of(queue), (std::vector<std::uint32_t>{
                                 kHigh1, kHigh2, kMid1, kMid2, kLow1}));
  EXPECT_EQ(queue.scan_limit(), 1u);
}

// The tail shortcut in PriorityFifoPolicy::insertion_index must return
// exactly what a full upper_bound search over the non-increasing queue
// returns, for every queue shape and every arrival relative to the tail.
TEST(QueuePolicy, PriorityInsertionMatchesUpperBound) {
  const auto reference = [](const std::deque<QueueEntry>& entries,
                            int priority) {
    return static_cast<std::size_t>(
        std::upper_bound(entries.begin(), entries.end(), priority,
                         [](int p, const QueueEntry& queued) {
                           return queued.priority < p;
                         }) -
        entries.begin());
  };
  const PriorityFifoPolicy policy;
  const auto check = [&](const std::deque<QueueEntry>& entries,
                         int priority) {
    EXPECT_EQ(policy.insertion_index(entries, entry(0, priority)),
              reference(entries, priority))
        << "queue size " << entries.size() << ", arrival " << priority;
  };

  // Empty queue: every arrival goes to index 0.
  for (int p = 0; p <= 31; ++p) check({}, p);

  sim::RngStream rng(7, "priority-insertion");
  const auto shaped = [&](int shape, std::size_t n) {
    std::deque<QueueEntry> entries;
    if (shape == 0) {  // all equal
      const int p = static_cast<int>(rng.uniform_int(0, 31));
      for (std::size_t i = 0; i < n; ++i) entries.push_back(entry(0, p));
    } else if (shape == 1) {  // strictly descending
      int p = 31;
      for (std::size_t i = 0; i < n && p >= 0; ++i) {
        entries.push_back(entry(0, p));
        p -= static_cast<int>(rng.uniform_int(1, 3));
      }
    } else {  // random non-increasing with runs of ties
      std::vector<int> ps;
      for (std::size_t i = 0; i < n; ++i) {
        ps.push_back(static_cast<int>(rng.uniform_int(0, 31)));
      }
      std::sort(ps.begin(), ps.end(), std::greater<>());
      for (int p : ps) entries.push_back(entry(0, p));
    }
    return entries;
  };
  for (int round = 0; round < 300; ++round) {
    const auto entries =
        shaped(round % 3, static_cast<std::size_t>(rng.uniform_int(1, 40)));
    const int tail = entries.back().priority;
    // Arrivals above, equal to and below the tail, plus the full range.
    if (tail < 31) check(entries, tail + 1);
    check(entries, tail);
    if (tail > 0) check(entries, tail - 1);
    check(entries, static_cast<int>(rng.uniform_int(0, 31)));
  }
}

TEST(QueuePolicy, BackfillBoundsScanDepth) {
  TaskQueue queue(std::make_unique<BackfillPolicy>(4));
  for (std::uint32_t i = 0; i < 3; ++i) queue.push(entry(i));
  EXPECT_EQ(queue.scan_limit(), 3u);  // clamped to queue size
  for (std::uint32_t i = 3; i < 10; ++i) queue.push(entry(i));
  EXPECT_EQ(queue.scan_limit(), 4u);  // clamped to depth
  static_cast<BackfillPolicy&>(queue.policy()).set_depth(64);
  EXPECT_EQ(queue.scan_limit(), 10u);
  EXPECT_THROW(BackfillPolicy(0), util::Error);
}

TEST(QueuePolicy, TaskQueueTakeRemoveAndDrain) {
  TaskQueue queue(std::make_unique<FifoPolicy>());
  enum : std::uint32_t { kKeep = 7, kVictim = 1, kTail = 3, kAbsent = 9 };
  queue.push(entry(kKeep));
  queue.push(entry(kVictim));
  queue.push(entry(kTail));

  EXPECT_FALSE(queue.remove(kAbsent));
  EXPECT_TRUE(queue.remove(kVictim));
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.at(0).slot, kKeep);

  auto taken = queue.take(1);
  EXPECT_EQ(taken.slot, kTail);

  auto drained = queue.drain();
  EXPECT_TRUE(queue.empty());
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained.front().slot, kKeep);
}

// A traced queue names each wait span by the owner's uid for the slot,
// with the priority as the opening value and the queue size left as the
// closing one.
TEST(QueuePolicy, TaskQueueTracesWaitsUnderTheOwnersUids) {
  sim::Engine engine;
  obs::Tracer tracer(engine, 16);
  TaskQueue queue(std::make_unique<FifoPolicy>());
  const std::vector<std::string> uids = {"task.000000", "task.000001"};
  queue.set_trace(obs::TraceHandle(&tracer), "flux.0",
                  [&uids](std::uint32_t slot) {
                    return uids.at(slot);
                  });
  queue.push(entry(1, 24));
  queue.push(entry(0, 8));
  queue.take(0);
  queue.drain();
  std::vector<obs::Record> records;
  tracer.for_each([&records](const obs::Record& r) { records.push_back(r); });
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].kind, obs::RecordKind::kBegin);
  EXPECT_EQ(records[2].kind, obs::RecordKind::kEnd);
  EXPECT_EQ(records[0].entity, "task.000001");
  EXPECT_EQ(records[0].value, 24.0);
  EXPECT_EQ(records[1].entity, "task.000000");
  EXPECT_EQ(records[2].entity, "task.000001");
  EXPECT_EQ(records[2].value, 1.0);
  EXPECT_EQ(records[3].entity, "task.000000");
  for (const auto& record : records) EXPECT_EQ(record.component, "flux.0");
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

TEST(FreeResourceIndex, ReleaseGenerationMovesOnlyWhenCapacityGrows) {
  Cluster cluster(frontier_spec(), 6);
  const NodeRange range{0, 4};  // nodes 4 and 5 lie outside
  Placer placer(cluster, range, {.rotate_cursor = false});
  FreeResourceIndex index(cluster, range);
  const auto start = index.release_generation();

  auto placed = placer.place({2 * 56, 2, 56});
  ASSERT_TRUE(placed.has_value());
  auto direct = cluster.node(3).allocate(10, 0);
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(index.release_generation(), start);  // allocations never move it

  placer.release(*placed);
  const auto after_placer_release = index.release_generation();
  EXPECT_GT(after_placer_release, start);

  cluster.node(3).release(*direct);  // behind the placer's back
  const auto after_direct_release = index.release_generation();
  EXPECT_GT(after_direct_release, after_placer_release);

  auto outside = cluster.node(5).allocate(56, 8);
  ASSERT_TRUE(outside.has_value());
  cluster.node(5).release(*outside);
  EXPECT_EQ(index.release_generation(), after_direct_release);
}

// Property: the successor search answers find_fit and find_any exactly like
// a linear scan of the window, and the root holds the range's maxima, after
// every change. Clusters span 1..3,000 nodes (mostly padded leaf counts)
// with sub-ranges that need not start at node 0. Changes go through Node
// directly and through Cluster::release, and mix whole-node, partial-core
// and GPU-only slices, so a segment's cores and GPU maxima often come from
// different nodes. Windows stick out of the range on either side, are
// empty or a single node, and chain from the previous answer as first-fit
// does.
TEST(FreeResourceIndex, SuccessorSearchMatchesLinearScan) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    sim::RngStream rng(seed);
    const int nodes = static_cast<int>(
        seed % 4 == 0 ? rng.uniform_int(1, 3000) : rng.uniform_int(1, 300));
    Cluster cluster(frontier_spec(), nodes);
    const auto first = static_cast<NodeId>(
        rng.bernoulli(0.5) ? rng.uniform_int(0, nodes - 1) : 0);
    const NodeRange range{
        first, static_cast<std::int32_t>(rng.uniform_int(1, nodes - first))};
    FreeResourceIndex index(cluster, range);

    auto fit_scan = [&](NodeId from, NodeId limit, int cores,
                        int gpus) -> std::optional<NodeId> {
      for (NodeId n = std::max(from, range.first);
           n < std::min(limit, range.end()); ++n) {
        const auto& node = cluster.node(n);
        if (node.free_cores() >= cores && node.free_gpus() >= gpus) return n;
      }
      return std::nullopt;
    };
    auto any_scan = [&](NodeId from, NodeId limit, bool need_cores,
                        bool need_gpus) -> std::optional<NodeId> {
      for (NodeId n = std::max(from, range.first);
           n < std::min(limit, range.end()); ++n) {
        const auto& node = cluster.node(n);
        if ((need_cores && node.free_cores() > 0) ||
            (need_gpus && node.free_gpus() > 0)) {
          return n;
        }
      }
      return std::nullopt;
    };
    auto random_node = [&] {
      return static_cast<NodeId>(rng.uniform_int(0, nodes - 1));
    };
    auto check = [&](int step) {
      int max_cores = 0, max_gpus = 0;
      for (NodeId n = range.first; n < range.end(); ++n) {
        max_cores = std::max(max_cores, cluster.node(n).free_cores());
        max_gpus = std::max(max_gpus, cluster.node(n).free_gpus());
      }
      ASSERT_EQ(index.max_free_cores(), max_cores) << "step " << step;
      ASSERT_EQ(index.max_free_gpus(), max_gpus) << "step " << step;
      for (int probe = 0; probe < 6; ++probe) {
        // Demands shaped like some node's free counts, so a fit is often
        // rare and the conjunction over-promises on the way to it.
        const auto& model = cluster.node(random_node());
        const auto cores = static_cast<int>(
            rng.uniform_int(0, std::max(model.free_cores(), 1)));
        const auto gpus = static_cast<int>(
            rng.uniform_int(0, std::max(model.free_gpus(), 1)));
        const bool need_cores = rng.bernoulli(0.6);
        const bool need_gpus = rng.bernoulli(0.5);
        auto from = static_cast<NodeId>(
            rng.uniform_int(range.first - 3, range.end() + 2));
        // Empty, single-node, past the range's end, or anywhere.
        const auto shape = rng.uniform_int(0, 3);
        const NodeId limit =
            shape == 0   ? from
            : shape == 1 ? from + 1
            : shape == 2 ? range.end() + static_cast<NodeId>(
                                             rng.uniform_int(0, 3))
                         : static_cast<NodeId>(
                               rng.uniform_int(from - 1, range.end() + 3));
        // Chain like first-fit: each query resumes past the last answer.
        for (int hop = 0; hop < 4; ++hop) {
          const auto fit = index.find_fit(from, limit, cores, gpus);
          ASSERT_EQ(fit, fit_scan(from, limit, cores, gpus))
              << "step " << step << " find_fit [" << from << "," << limit
              << ") cores=" << cores << " gpus=" << gpus;
          const auto any = index.find_any(from, limit, need_cores, need_gpus);
          ASSERT_EQ(any, any_scan(from, limit, need_cores, need_gpus))
              << "step " << step << " find_any [" << from << "," << limit
              << ") cores=" << need_cores << " gpus=" << need_gpus;
          if (!fit) break;
          from = *fit + 1;
        }
      }
    };

    std::vector<platform::NodeSlice> held;
    check(-1);
    for (int step = 0; step < 400 && !::testing::Test::HasFatalFailure();
         ++step) {
      const auto op = rng.uniform_int(0, 9);
      if (op <= 4 || held.empty()) {
        // A run of adjacent nodes, like a multi-node job's chunks.
        const NodeId start = random_node();
        const auto run = static_cast<int>(
            rng.bernoulli(0.3) ? rng.uniform_int(1, 64) : 1);
        const auto shape = rng.uniform_int(0, 2);
        for (NodeId n = start; n < std::min(nodes, start + run); ++n) {
          auto& node = cluster.node(n);
          int cores = node.free_cores();  // whole node
          int gpus = node.free_gpus();
          if (shape == 1) {  // partial cores, maybe a GPU
            cores = static_cast<int>(rng.uniform_int(1, 56));
            gpus = static_cast<int>(rng.uniform_int(0, 1));
          } else if (shape == 2) {  // GPU only
            cores = 0;
            gpus = static_cast<int>(rng.uniform_int(1, 8));
          }
          if (auto slice = node.allocate(cores, gpus)) held.push_back(*slice);
        }
      } else if (op <= 7) {
        const auto i = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(held.size()) - 1));
        cluster.node(held[i].node).release(held[i]);
        held[i] = held.back();
        held.pop_back();
      } else {
        // A batch through Cluster, like a job's whole placement.
        platform::Placement placement;
        const auto batch = std::min<std::size_t>(
            held.size(), static_cast<std::size_t>(rng.uniform_int(1, 32)));
        placement.slices.assign(held.end() - static_cast<long>(batch),
                                held.end());
        held.resize(held.size() - batch);
        cluster.release(placement);
      }
      check(step);
    }
  }
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

TEST(Placer, MemoHitCountsAsRejectedAttempt) {
  sim::Engine engine;
  obs::Tracer tracer(engine);
  Cluster cluster(frontier_spec(), 2);
  Placer placer(cluster, cluster.all_nodes(), {.rotate_cursor = false});
  placer.set_trace(obs::TraceHandle(&tracer), "flux.0");
  const ResourceDemand too_big{3 * 56, 0, 56};

  EXPECT_FALSE(placer.place(too_big).has_value());  // searched
  EXPECT_EQ(placer.stats().memo_hits, 0u);
  EXPECT_FALSE(placer.place(too_big).has_value());  // from the memo
  EXPECT_EQ(placer.stats().memo_hits, 1u);
  EXPECT_EQ(placer.stats().attempts, 2u);
  EXPECT_EQ(placer.stats().placed, 0u);
  EXPECT_EQ(placer.stats().rejected, 2u);

  // An allocation keeps the memo; a release clears it.
  auto held = placer.place({56, 0, 56});
  ASSERT_TRUE(held.has_value());
  EXPECT_FALSE(placer.place(too_big).has_value());
  EXPECT_EQ(placer.stats().memo_hits, 2u);
  placer.release(*held);
  EXPECT_FALSE(placer.place(too_big).has_value());
  EXPECT_EQ(placer.stats().memo_hits, 2u);

  // One kPlacementAttempt instant per attempt, memo hits included.
  const std::vector<double> expected_values{0.0, 0.0, 1.0, 0.0, 0.0};
  ASSERT_EQ(tracer.size(), expected_values.size());
  for (std::size_t i = 0; i < expected_values.size(); ++i) {
    const auto& record = tracer.at(i);
    EXPECT_EQ(record.kind, obs::RecordKind::kInstant);
    EXPECT_EQ(record.type, obs::SpanType::kPlacementAttempt);
    EXPECT_EQ(record.component, "flux.0");
    EXPECT_EQ(record.value, expected_values[i]) << "attempt " << i;
  }
}

TEST(Placer, RotatingPlacerRescansEveryRejection) {
  // Nine whole-node chunks never fit on eight nodes. Between repeats a
  // direct allocation fills the last node the scan took, which moves no
  // release generation but does move where the next scan ends, so a
  // memoized rejection would leave the cursor behind.
  Cluster cluster(frontier_spec(), 8);
  Cluster legacy(frontier_spec(), 8);
  const auto range = cluster.all_nodes();
  Placer placer(cluster, range);
  NodeId cursor = range.first;
  const ResourceDemand never_fits{9 * 56, 0, 56};
  std::vector<NodeId> cursors;
  for (NodeId fill = 7; fill >= 4; --fill) {
    EXPECT_FALSE(placer.place(never_fits).has_value());
    EXPECT_FALSE(linear_try_place(legacy, range, never_fits, &cursor));
    ASSERT_EQ(placer.cursor(), cursor);
    cursors.push_back(cursor);
    for (Cluster* c : {&cluster, &legacy}) {
      ASSERT_TRUE(c->node(fill).allocate(56, 0).has_value());
    }
  }
  EXPECT_EQ(cursors, (std::vector<NodeId>{0, 7, 6, 5}));
  EXPECT_EQ(placer.stats().memo_hits, 0u);
  EXPECT_EQ(placer.stats().rejected, 4u);
}

TEST(Placer, IndexlessAndNonFirstFitPlacersKeepNoMemo) {
  Cluster cluster(frontier_spec(), 2);
  const ResourceDemand too_big{3 * 56, 0, 56};

  Placer linear(cluster, cluster.all_nodes(),
                {.rotate_cursor = false, .use_index = false});
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(linear.place(too_big));
  EXPECT_EQ(linear.stats().rejected, 3u);
  EXPECT_EQ(linear.stats().memo_hits, 0u);

  // A best-fit round trip: best-fit searches every time, and its rolled
  // back rejections release capacity, so first-fit searches once more.
  Placer placer(cluster, cluster.all_nodes(), {.rotate_cursor = false});
  EXPECT_FALSE(placer.place(too_big));
  placer.set_policy(PlacementPolicyKind::kBestFit);
  for (int i = 0; i < 2; ++i) EXPECT_FALSE(placer.place(too_big));
  auto packed = placer.place({56, 0, 56});
  ASSERT_TRUE(packed.has_value());
  EXPECT_EQ(packed->slices[0].node, 0);
  placer.release(*packed);
  EXPECT_EQ(placer.stats().memo_hits, 0u);
  placer.set_policy(PlacementPolicyKind::kFirstFit);
  EXPECT_FALSE(placer.place(too_big));
  EXPECT_EQ(placer.stats().memo_hits, 0u);
  EXPECT_FALSE(placer.place(too_big));
  EXPECT_EQ(placer.stats().memo_hits, 1u);
  EXPECT_EQ(placer.stats().attempts, 6u);
  EXPECT_EQ(placer.stats().rejected, 5u);
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

// ---------------------------------------------------- rejection memo

// The memo cannot lean on first-fit completeness: at a fixed origin a
// non-uniform chunked demand can be rejected although a fit exists.
TEST(RejectionMemoEdge, FixedOriginFirstFitCanMissAFitThatExists) {
  Cluster cluster(frontier_spec(), 2);
  ASSERT_TRUE(cluster.node(0).allocate(36, 0).has_value());  // 20 free
  Placer placer(cluster, cluster.all_nodes(), {.rotate_cursor = false});
  const ResourceDemand demand{66, 0, 56};  // chunks of 56 and 10 cores
  // Chunk 1 takes node 1; chunk 2 searches [2, end) and cannot wrap.
  EXPECT_FALSE(placer.place(demand).has_value());
  EXPECT_FALSE(placer.place(demand).has_value());
  EXPECT_EQ(placer.stats().memo_hits, 1u);

  BestFitPolicy best_fit;
  const auto fit =
      best_fit.place({cluster, cluster.all_nodes(), nullptr, nullptr}, demand);
  ASSERT_TRUE(fit.has_value());
  EXPECT_EQ(fit->slices.size(), 2u);
}

// Property: a fixed-origin first-fit placer, whose rejection memo answers
// repeated demands, agrees with a memo-less first-fit search on the same
// cluster on every attempt: same accept/reject, same slices. The run mixes
// placer releases, allocations and releases made behind the placer's
// back, and gang-style rollback (place A, place B, release A if B does not
// fit). The small demand pool makes demands repeat; it includes
// non-uniform chunks, where a fixed-origin first-fit can miss a fit that
// exists, and loose demands.
class RejectionMemo : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RejectionMemo, AgreesWithFullSearchOnEveryAttempt) {
  sim::RngStream rng(GetParam());
  const int nodes = static_cast<int>(rng.uniform_int(2, 10));
  Cluster cluster(frontier_spec(), nodes);
  const auto range = cluster.all_nodes();
  Placer placer(cluster, range, {.rotate_cursor = false});
  FirstFitPolicy oracle;
  FreeResourceIndex oracle_index(cluster, range);
  const PlacementInput oracle_in{cluster, range, nullptr, &oracle_index};
  const std::vector<ResourceDemand> pool = {
      {66, 0, 56},          {2 * 56 + 20, 5, 56}, {4 * 56, 0, 56},
      {56, 8, 56},          {30, 2, 0},           {3 * 56 + 1, 9, 0},
  };

  // The test's own account of when a memo hit is due: a rejection of a
  // demand already rejected since the last time any node gained free
  // cores or GPUs. `track` runs after every change to the cluster.
  auto last = free_counts(cluster);
  std::vector<ResourceDemand> rejected_since_gain;
  std::uint64_t repeats = 0;
  auto track = [&] {
    auto now = free_counts(cluster);
    for (std::size_t i = 0; i < now.size(); ++i) {
      if (now[i].first > last[i].first || now[i].second > last[i].second) {
        rejected_since_gain.clear();
        break;
      }
    }
    last = std::move(now);
  };

  int placed = 0, refused = 0;
  auto place_checked = [&](const ResourceDemand& demand, int step) {
    auto expected = oracle.place(oracle_in, demand);
    if (expected) {
      track();
      cluster.release(*expected);  // hand the nodes to the placer
      track();
    }
    auto actual = placer.place(demand);
    track();
    EXPECT_EQ(expected.has_value(), actual.has_value())
        << "step " << step << " cores=" << demand.cores
        << " gpus=" << demand.gpus << " cpn=" << demand.cores_per_node;
    if (expected && actual) {
      EXPECT_TRUE(expected->slices == actual->slices) << "step " << step;
    }
    if (actual) {
      ++placed;
    } else {
      ++refused;
      if (std::find(rejected_since_gain.begin(), rejected_since_gain.end(),
                    demand) != rejected_since_gain.end()) {
        ++repeats;
      } else {
        rejected_since_gain.push_back(demand);
      }
    }
    return actual;
  };
  auto pick = [&](auto& items) {
    return static_cast<std::ptrdiff_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(items.size()) - 1));
  };

  std::vector<platform::Placement> held;
  std::vector<platform::NodeSlice> direct;
  for (int step = 0; step < 600; ++step) {
    const double op = rng.uniform();
    if (op < 0.45 || held.empty()) {
      const auto& demand = pool[static_cast<std::size_t>(pick(pool))];
      if (auto p = place_checked(demand, step)) held.push_back(std::move(*p));
    } else if (op < 0.6) {
      const auto victim = held.begin() + pick(held);
      placer.release(*victim);
      held.erase(victim);
      track();
    } else if (op < 0.75) {
      auto& node = cluster.node(static_cast<NodeId>(rng.uniform_int(
          range.first, range.end() - 1)));
      auto slice = node.allocate(
          static_cast<int>(rng.uniform_int(0, node.free_cores())),
          static_cast<int>(rng.uniform_int(0, node.free_gpus())));
      ASSERT_TRUE(slice.has_value());
      direct.push_back(*slice);
      track();
    } else if (op < 0.85) {
      if (direct.empty()) continue;
      const auto victim = direct.begin() + pick(direct);
      cluster.node(victim->node).release(*victim);
      direct.erase(victim);
      track();
    } else {
      auto a = place_checked(pool[static_cast<std::size_t>(pick(pool))], step);
      auto b = place_checked(pool[static_cast<std::size_t>(pick(pool))], step);
      if (a && !b) {
        placer.release(*a);  // the gang does not fit: roll back
        track();
      } else {
        if (a) held.push_back(std::move(*a));
        if (b) held.push_back(std::move(*b));
      }
    }
    if (::testing::Test::HasFailure()) FAIL() << "stopped at step " << step;
  }
  EXPECT_GT(placed, 0);
  EXPECT_GT(refused, 0);
  // The memo was exercised, and hit exactly when the free set had only
  // shrunk since the same demand was last rejected.
  EXPECT_GE(repeats, 1u);
  EXPECT_EQ(placer.stats().memo_hits, repeats);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RejectionMemo,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace flotilla::sched
