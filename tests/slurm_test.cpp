#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "platform/calibration.hpp"
#include "platform/cluster.hpp"
#include "sim/stats.hpp"
#include "slurm/slurmctld.hpp"
#include "slurm/srun_backend.hpp"
#include "util/strfmt.hpp"

namespace flotilla::slurm {
namespace {

using platform::Cluster;
using platform::NodeRange;
using platform::ResourceDemand;
using platform::frontier_calibration;
using platform::frontier_spec;

struct Fixture {
  sim::Engine engine;
  Cluster cluster;
  SrunBackend backend;

  explicit Fixture(int nodes, platform::SlurmCalibration cal =
                                  frontier_calibration().slurm)
      : cluster(frontier_spec(), nodes),
        backend(engine, cluster, NodeRange{0, nodes}, cal, 42) {
    bool ready = false;
    backend.bootstrap([&](bool ok, const std::string&) { ready = ok; });
    engine.run(1.0);
    EXPECT_TRUE(ready);
  }
};

platform::LaunchRequest make_task(int i, double duration, std::int64_t cores,
                                  std::int64_t gpus = 0) {
  platform::LaunchRequest req;
  req.id = util::cat("task.", i);
  req.demand.cores = cores;
  req.demand.gpus = gpus;
  req.duration = duration;
  return req;
}

// ------------------------------------------------------------- placement

TEST(Slurmctld, GreedyPlacementSpansNodes) {
  sim::Engine engine;
  Cluster cluster(frontier_spec(), 2);
  Slurmctld ctld(engine, cluster, NodeRange{0, 2},
                 frontier_calibration().slurm, 1);
  const auto placement = ctld.try_place(ResourceDemand{70, 0, 0});
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(placement->total_cores(), 70);
  EXPECT_EQ(placement->node_count(), 2);
  EXPECT_EQ(cluster.free_cores(NodeRange{0, 2}), 112 - 70);
}

TEST(Slurmctld, PlacementFailureRollsBack) {
  sim::Engine engine;
  Cluster cluster(frontier_spec(), 2);
  Slurmctld ctld(engine, cluster, NodeRange{0, 2},
                 frontier_calibration().slurm, 1);
  EXPECT_FALSE(ctld.try_place(ResourceDemand{113, 0, 0}).has_value());
  EXPECT_EQ(cluster.free_cores(NodeRange{0, 2}), 112);  // nothing leaked
}

TEST(Slurmctld, TightPlacementUsesWholeChunks) {
  sim::Engine engine;
  Cluster cluster(frontier_spec(), 4);
  Slurmctld ctld(engine, cluster, NodeRange{0, 4},
                 frontier_calibration().slurm, 1);
  // MPI-style request: 112 cores at 56 per node -> exactly 2 nodes, with
  // 8 GPUs split across them.
  const auto placement = ctld.try_place(ResourceDemand{112, 8, 56});
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(placement->node_count(), 2);
  EXPECT_EQ(placement->total_gpus(), 8);
  for (const auto& slice : placement->slices) EXPECT_EQ(slice.cores(), 56);
}

TEST(Slurmctld, TightPlacementFailsWhenNodesBusy) {
  sim::Engine engine;
  Cluster cluster(frontier_spec(), 2);
  Slurmctld ctld(engine, cluster, NodeRange{0, 2},
                 frontier_calibration().slurm, 1);
  // Take one core on each node: no node can host a full 56-core chunk.
  ASSERT_TRUE(cluster.node(0).allocate(1, 0).has_value());
  ASSERT_TRUE(cluster.node(1).allocate(1, 0).has_value());
  EXPECT_FALSE(ctld.try_place(ResourceDemand{112, 0, 56}).has_value());
  EXPECT_EQ(cluster.free_cores(NodeRange{0, 2}), 110);
}

TEST(Slurmctld, GpuOnlyPlacement) {
  sim::Engine engine;
  Cluster cluster(frontier_spec(), 1);
  Slurmctld ctld(engine, cluster, NodeRange{0, 1},
                 frontier_calibration().slurm, 1);
  const auto placement = ctld.try_place(ResourceDemand{1, 8, 0});
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(placement->total_gpus(), 8);
  EXPECT_FALSE(ctld.try_place(ResourceDemand{1, 1, 0}).has_value());
}

// ---------------------------------------------------------- serialization

// Controller serialization must reproduce the paper's launch rates for null
// workloads: ~152 tasks/s on 1 node, ~61 tasks/s on 4 nodes (Fig 5a).
TEST(SrunBackend, NullTaskThroughputMatchesPaperShape) {
  auto run = [](int nodes) {
    Fixture fx(nodes);
    sim::RateSeries starts(1.0);
    fx.backend.on_task_start(
        [&](const std::string&) { starts.record(fx.engine.now()); });
    fx.backend.on_task_complete([](const platform::LaunchOutcome&) {});
    const int n_tasks = 2000;
    for (int i = 0; i < n_tasks; ++i) {
      fx.backend.submit(make_task(i, 0.0, 1));
    }
    fx.engine.run();
    EXPECT_EQ(starts.total(), static_cast<std::uint64_t>(n_tasks));
    return starts.window_rate();
  };
  const double rate1 = run(1);
  const double rate4 = run(4);
  EXPECT_NEAR(rate1, 152.0, 20.0);
  EXPECT_NEAR(rate4, 61.0, 8.0);
  EXPECT_GT(rate1, rate4);  // srun degrades with allocation size
}

// ----------------------------------------------------------- the ceiling

// Experiment srun (Fig 4): 896 single-core 180 s tasks on 4 nodes are capped
// at 112 concurrent tasks -> 50% of the 224 cores.
TEST(SrunBackend, ConcurrencyCeilingCapsUtilization) {
  Fixture fx(4);
  sim::TimeWeighted running;
  running.set(0.0, 0.0);
  int done = 0;
  fx.backend.on_task_start(
      [&](const std::string&) { running.add(fx.engine.now(), 1.0); });
  fx.backend.on_task_complete([&](const platform::LaunchOutcome& outcome) {
    EXPECT_TRUE(outcome.success);
    running.add(fx.engine.now(), -1.0);
    ++done;
  });
  for (int i = 0; i < 896; ++i) fx.backend.submit(make_task(i, 180.0, 1));
  fx.engine.run();
  EXPECT_EQ(done, 896);
  EXPECT_EQ(running.max_value(), 112.0);  // hard ceiling

  const double makespan = fx.engine.now();
  const double util =
      running.integral(makespan) * 1.0 /* core per task */ /
      (224.0 * makespan);
  EXPECT_NEAR(util, 0.50, 0.03);
}

TEST(SrunBackend, CeilingQueueIsFifo) {
  Fixture fx(4);
  std::vector<std::string> order;
  fx.backend.on_task_start(
      [&](const std::string& id) { order.push_back(id); });
  fx.backend.on_task_complete([](const platform::LaunchOutcome&) {});
  for (int i = 0; i < 300; ++i) fx.backend.submit(make_task(i, 5.0, 1));
  fx.engine.run();
  ASSERT_EQ(order.size(), 300u);
  // Ceiling admission is FIFO: the first 112 tasks to *start* are exactly
  // the first 112 submitted, though srun client jitter shuffles their
  // relative start order.
  std::vector<std::string> first(order.begin(), order.begin() + 112);
  std::sort(first.begin(), first.end());
  std::vector<std::string> expected;
  for (int i = 0; i < 112; ++i) expected.push_back(util::cat("task.", i));
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(first, expected);
}

// --------------------------------------------------------------- retries

TEST(SrunBackend, BlockedStepsRetryWithBackoff) {
  Fixture fx(1);  // 56 cores
  int done = 0;
  fx.backend.on_task_complete(
      [&](const platform::LaunchOutcome&) { ++done; });
  // Two whole-node tasks: whichever wins the race takes the node for 100 s;
  // the loser must poll with backoff and cannot start before t=100.
  fx.backend.submit(make_task(0, 100.0, 56));
  fx.backend.submit(make_task(1, 100.0, 56));
  std::vector<sim::Time> start_times;
  fx.backend.on_task_start(
      [&](const std::string&) { start_times.push_back(fx.engine.now()); });
  fx.engine.run();
  EXPECT_EQ(done, 2);
  EXPECT_GT(fx.backend.controller().retries_served(), 0u);
  ASSERT_EQ(start_times.size(), 2u);
  EXPECT_GE(start_times[1], 100.0);
  // Polling (not events): the retry lands within one backoff period of the
  // release, bounded by step_retry_max.
  EXPECT_LE(start_times[1],
            100.0 + frontier_calibration().slurm.step_retry_max * 1.5);
}

TEST(Slurmctld, CanEverFitBoundsByAllocationAndNode) {
  sim::Engine engine;
  Cluster cluster(frontier_spec(), 2);
  Slurmctld ctld(engine, cluster, NodeRange{0, 2},
                 frontier_calibration().slurm, 1);
  EXPECT_TRUE(ctld.can_ever_fit(ResourceDemand{112, 16, 0}));
  EXPECT_FALSE(ctld.can_ever_fit(ResourceDemand{113, 0, 0}));
  EXPECT_FALSE(ctld.can_ever_fit(ResourceDemand{1, 17, 0}));
  EXPECT_TRUE(ctld.can_ever_fit(ResourceDemand{112, 0, 56}));
  EXPECT_FALSE(ctld.can_ever_fit(ResourceDemand{57, 0, 57}));
  EXPECT_FALSE(ctld.can_ever_fit(ResourceDemand{30, 0, 10}));  // 3 chunks
}

// A step larger than the allocation fails at once instead of polling the
// controller forever.
TEST(SrunBackend, StepThatCanNeverFitFailsAtAccept) {
  Fixture fx(1);  // 56 cores
  std::vector<platform::LaunchOutcome> outcomes;
  fx.backend.on_task_complete([&](const platform::LaunchOutcome& outcome) {
    outcomes.push_back(outcome);
  });
  fx.backend.submit(make_task(0, 10.0, 57));
  fx.backend.submit(make_task(1, 10.0, 56));
  fx.engine.run();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].id, "task.0");
  EXPECT_FALSE(outcomes[0].success);
  EXPECT_EQ(outcomes[0].error, "step can never fit the srun allocation");
  EXPECT_TRUE(outcomes[1].success);
  EXPECT_TRUE(fx.engine.empty());
  EXPECT_TRUE(fx.backend.quiescent());
  EXPECT_EQ(fx.backend.controller().retries_served(), 0u);
  EXPECT_EQ(fx.backend.active_sruns(), 0);
}

// ------------------------------------------------------------- failures

TEST(SrunBackend, FailureInjectionReportsFailedTasks) {
  Fixture fx(4);
  int failed = 0, ok = 0;
  fx.backend.on_task_complete([&](const platform::LaunchOutcome& outcome) {
    outcome.success ? ++ok : ++failed;
    if (!outcome.success) {
      EXPECT_FALSE(outcome.error.empty());
    }
  });
  for (int i = 0; i < 400; ++i) {
    auto req = make_task(i, 0.0, 1);
    req.fail_probability = 0.25;
    fx.backend.submit(req);
  }
  fx.engine.run();
  EXPECT_EQ(ok + failed, 400);
  EXPECT_NEAR(static_cast<double>(failed), 100.0, 40.0);
}

TEST(SrunBackend, ShutdownFailsQueuedTasks) {
  Fixture fx(4);
  int failed = 0, ok = 0;
  fx.backend.on_task_complete([&](const platform::LaunchOutcome& outcome) {
    outcome.success ? ++ok : ++failed;
  });
  for (int i = 0; i < 200; ++i) fx.backend.submit(make_task(i, 60.0, 1));
  fx.engine.run(1.0);  // some tasks started, some queued on the ceiling
  fx.backend.shutdown();
  EXPECT_FALSE(fx.backend.healthy());
  fx.engine.run();
  EXPECT_EQ(ok + failed, 200);
  EXPECT_GT(failed, 0);
  EXPECT_EQ(fx.backend.inflight(), 0u);
}

TEST(SrunBackend, RejectsFunctionTasks) {
  Fixture fx(1);
  EXPECT_TRUE(fx.backend.accepts(platform::TaskModality::kExecutable));
  EXPECT_FALSE(fx.backend.accepts(platform::TaskModality::kFunction));
}

// Multi-node tasks hold all their slices until completion.
TEST(SrunBackend, MultiNodeStepLifecycle) {
  Fixture fx(4);
  int done = 0;
  fx.backend.on_task_complete(
      [&](const platform::LaunchOutcome&) { ++done; });
  auto req = make_task(0, 50.0, 224);
  req.demand.cores_per_node = 56;
  req.demand.gpus = 32;
  fx.backend.submit(req);
  fx.engine.run(25.0);
  EXPECT_EQ(fx.cluster.free_cores(NodeRange{0, 4}), 0);
  EXPECT_EQ(fx.cluster.free_gpus(NodeRange{0, 4}), 0);
  fx.engine.run();
  EXPECT_EQ(done, 1);
  EXPECT_EQ(fx.cluster.free_cores(NodeRange{0, 4}), 224);
  EXPECT_EQ(fx.cluster.free_gpus(NodeRange{0, 4}), 32);
}

}  // namespace
}  // namespace flotilla::slurm
