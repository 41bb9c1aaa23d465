#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "dragon/dragon_backend.hpp"
#include "dragon/runtime.hpp"
#include "obs/tracer.hpp"
#include "platform/calibration.hpp"
#include "platform/cluster.hpp"
#include "sim/stats.hpp"
#include "util/error.hpp"
#include "util/strfmt.hpp"

namespace flotilla::dragon {
namespace {

using platform::Cluster;
using platform::NodeRange;
using platform::TaskModality;
using platform::frontier_calibration;
using platform::frontier_spec;

platform::LaunchRequest make_task(int i, double duration, std::int64_t cores,
                                  TaskModality modality =
                                      TaskModality::kExecutable) {
  platform::LaunchRequest req;
  req.id = util::cat("task.", i);
  req.demand.cores = cores;
  req.duration = duration;
  req.modality = modality;
  return req;
}

struct Fixture {
  sim::Engine engine;
  Cluster cluster;
  DragonBackend backend;

  explicit Fixture(int nodes)
      : cluster(frontier_spec(), nodes),
        backend(engine, cluster, NodeRange{0, nodes},
                frontier_calibration().dragon, 42) {
    bool ready = false;
    backend.bootstrap([&](bool ok, const std::string&) { ready = ok; });
    engine.run(30.0);
    EXPECT_TRUE(ready);
  }
};

TEST(DragonRuntime, BootstrapTakesAbout9Seconds) {
  Fixture fx(4);
  // Fig 7: ~9 s, roughly independent of node count.
  EXPECT_NEAR(fx.backend.bootstrap_duration(), 9.0, 2.5);
}

TEST(DragonBackend, AcceptsBothModalities) {
  Fixture fx(1);
  EXPECT_TRUE(fx.backend.accepts(TaskModality::kExecutable));
  EXPECT_TRUE(fx.backend.accepts(TaskModality::kFunction));
}

TEST(DragonBackend, ExecThroughputFlatSmallThenDropsAt64Nodes) {
  // Fig 5(c): 343/380/204 tasks/s at 4/16/64 nodes for executable tasks.
  auto rate_at = [](int nodes) {
    Fixture fx(nodes);
    sim::RateSeries starts(1.0);
    fx.backend.on_task_start(
        [&](const std::string&) { starts.record(fx.engine.now()); });
    fx.backend.on_task_complete([](const platform::LaunchOutcome&) {});
    const int n = 5000;
    for (int i = 0; i < n; ++i) fx.backend.submit(make_task(i, 0.0, 1));
    fx.engine.run();
    EXPECT_EQ(starts.total(), static_cast<std::uint64_t>(n));
    return starts.window_rate();
  };
  const double r4 = rate_at(4);
  const double r16 = rate_at(16);
  const double r64 = rate_at(64);
  EXPECT_NEAR(r4, 343.0, 60.0);
  EXPECT_NEAR(r16, 343.0, 70.0);  // flat-ish through 16 nodes
  EXPECT_NEAR(r64, 204.0, 50.0);  // centralized drag at 64 nodes
  EXPECT_LT(r64, 0.75 * r4);
}

TEST(DragonBackend, FunctionTasksDispatchFasterThanExec) {
  auto rate_for = [](TaskModality modality) {
    Fixture fx(16);
    sim::RateSeries starts(1.0);
    fx.backend.on_task_start(
        [&](const std::string&) { starts.record(fx.engine.now()); });
    fx.backend.on_task_complete([](const platform::LaunchOutcome&) {});
    for (int i = 0; i < 4000; ++i) {
      fx.backend.submit(make_task(i, 0.0, 1, modality));
    }
    fx.engine.run();
    return starts.window_rate();
  };
  const double exec = rate_for(TaskModality::kExecutable);
  const double func = rate_for(TaskModality::kFunction);
  EXPECT_GT(func, 1.5 * exec);
}

TEST(DragonBackend, TasksQueueWhenCapacityExhausted) {
  Fixture fx(1);  // 56 cores
  std::vector<sim::Time> starts;
  int done = 0;
  fx.backend.on_task_start(
      [&](const std::string&) { starts.push_back(fx.engine.now()); });
  fx.backend.on_task_complete(
      [&](const platform::LaunchOutcome&) { ++done; });
  for (int i = 0; i < 60; ++i) fx.backend.submit(make_task(i, 100.0, 1));
  fx.engine.run(50.0);
  EXPECT_EQ(starts.size(), 56u);  // node full; 4 tasks wait
  EXPECT_EQ(fx.backend.runtime().pending(), 4u);
  fx.engine.run();
  EXPECT_EQ(done, 60);
  // The waiters started only after the first wave released capacity.
  EXPECT_GE(starts[56], 100.0);
}

TEST(DragonBackend, StartupTimeoutFiresOnHungBootstrap) {
  sim::Engine engine;
  Cluster cluster(frontier_spec(), 2);
  DragonBackend backend(engine, cluster, NodeRange{0, 2},
                        frontier_calibration().dragon, 42);
  backend.set_fail_bootstrap();
  bool ok = true;
  std::string error;
  backend.bootstrap([&](bool success, const std::string& e) {
    ok = success;
    error = e;
  });
  engine.run();
  EXPECT_FALSE(ok);
  EXPECT_NE(error.find("timed out"), std::string::npos);
  // The timeout fired at the calibrated startup deadline.
  EXPECT_NEAR(engine.now(), frontier_calibration().dragon.startup_timeout,
              1.0);
  EXPECT_FALSE(backend.healthy());
}

TEST(DragonBackend, CrashFailsInflightTasks) {
  Fixture fx(2);
  int ok = 0, failed = 0;
  fx.backend.on_task_complete([&](const platform::LaunchOutcome& outcome) {
    outcome.success ? ++ok : ++failed;
  });
  for (int i = 0; i < 150; ++i) fx.backend.submit(make_task(i, 500.0, 1));
  fx.engine.run(100.0);
  fx.backend.crash();
  fx.engine.run();
  EXPECT_FALSE(fx.backend.healthy());
  EXPECT_EQ(ok + failed, 150);
  EXPECT_GT(failed, 0);
  EXPECT_EQ(fx.backend.inflight(), 0u);
  // Crashed runtime released all cores.
  EXPECT_EQ(fx.cluster.free_cores(NodeRange{0, 2}), 112);
}

TEST(DragonBackend, SubmitAfterCrashFailsFast) {
  Fixture fx(1);
  platform::LaunchOutcome last;
  fx.backend.on_task_complete(
      [&](const platform::LaunchOutcome& outcome) { last = outcome; });
  fx.backend.crash();
  fx.backend.submit(make_task(0, 1.0, 1));
  fx.engine.run();
  EXPECT_FALSE(last.success);
  EXPECT_EQ(fx.backend.inflight(), 0u);
}

TEST(DragonBackend, FailureInjectionReportsErrors) {
  Fixture fx(4);
  int ok = 0, failed = 0;
  fx.backend.on_task_complete([&](const platform::LaunchOutcome& outcome) {
    outcome.success ? ++ok : ++failed;
  });
  for (int i = 0; i < 500; ++i) {
    auto req = make_task(i, 0.0, 1);
    req.fail_probability = 0.2;
    fx.backend.submit(req);
  }
  fx.engine.run();
  EXPECT_EQ(ok + failed, 500);
  EXPECT_NEAR(static_cast<double>(failed), 100.0, 45.0);
}

// ---------------------------------------------------- partitioned dragon

TEST(DragonPartitions, PartitionedRuntimesScaleExecThroughput) {
  // The paper's future work (§4.1.4): partitioning should lift the
  // centralized 64-node ceiling.
  auto rate_with = [](int partitions) {
    sim::Engine engine;
    Cluster cluster(frontier_spec(), 64);
    DragonBackend backend(engine, cluster, NodeRange{0, 64},
                          frontier_calibration().dragon, 42, partitions);
    bool ready = false;
    backend.bootstrap([&](bool ok, const std::string&) { ready = ok; });
    engine.run(30.0);
    EXPECT_TRUE(ready);
    sim::RateSeries starts(1.0);
    backend.on_task_start(
        [&](const std::string&) { starts.record(engine.now()); });
    backend.on_task_complete([](const platform::LaunchOutcome&) {});
    for (int i = 0; i < 8000; ++i) backend.submit(make_task(i, 0.0, 1));
    engine.run();
    return starts.window_rate();
  };
  const double one = rate_with(1);
  const double eight = rate_with(8);
  EXPECT_NEAR(one, 204.0, 50.0);  // Fig 5c centralized ceiling
  EXPECT_GT(eight, 3.0 * one);    // partitioning restores scaling
}

TEST(DragonPartitions, RoundRobinSpreadsLoad) {
  sim::Engine engine;
  Cluster cluster(frontier_spec(), 8);
  DragonBackend backend(engine, cluster, NodeRange{0, 8},
                        frontier_calibration().dragon, 42, 4);
  bool ready = false;
  backend.bootstrap([&](bool ok, const std::string&) { ready = ok; });
  engine.run(30.0);
  ASSERT_TRUE(ready);
  backend.on_task_complete([](const platform::LaunchOutcome&) {});
  for (int i = 0; i < 400; ++i) backend.submit(make_task(i, 0.0, 1));
  engine.run();
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(static_cast<double>(backend.runtime(i).completed()), 100.0,
                1.0);
  }
}

TEST(DragonPartitions, InstanceCrashIsIsolated) {
  sim::Engine engine;
  Cluster cluster(frontier_spec(), 8);
  DragonBackend backend(engine, cluster, NodeRange{0, 8},
                        frontier_calibration().dragon, 42, 2);
  bool ready = false;
  backend.bootstrap([&](bool ok, const std::string&) { ready = ok; });
  engine.run(30.0);
  ASSERT_TRUE(ready);
  int ok = 0, failed = 0;
  backend.on_task_complete([&](const platform::LaunchOutcome& outcome) {
    outcome.success ? ++ok : ++failed;
  });
  for (int i = 0; i < 10; ++i) backend.submit(make_task(i, 500.0, 1));
  engine.run(engine.now() + 100.0);
  backend.crash("power fault", 0);
  EXPECT_TRUE(backend.healthy());  // the second runtime survives
  engine.run();
  EXPECT_EQ(ok + failed, 10);
  EXPECT_EQ(failed, 5);  // round-robin put half on the crashed runtime
  // Oversized tasks are rejected cleanly when no partition fits them.
  backend.submit(make_task(99, 1.0, 8 * 56));
  engine.run();
  EXPECT_EQ(failed, 6);
}

// ------------------------------------------------------ backend lifecycle

TEST(DragonBackend, UnhealthyUntilBootstrapped) {
  sim::Engine engine;
  Cluster cluster(frontier_spec(), 1);
  DragonBackend backend(engine, cluster, NodeRange{0, 1},
                        frontier_calibration().dragon, 42);
  EXPECT_FALSE(backend.healthy());
  EXPECT_THROW(backend.submit(make_task(0, 1.0, 1)), util::Error);
  backend.bootstrap([](bool, const std::string&) {});
  engine.run();
  EXPECT_TRUE(backend.healthy());
}

// The function lane of the hybrid experiment: every function task runs,
// and its outcome carries the virtual start and end of its payload.
TEST(DragonBackend, FunctionTasksReportTheirPayloadWindow) {
  Fixture fx(2);
  std::vector<platform::LaunchOutcome> outcomes;
  fx.backend.on_task_complete([&](const platform::LaunchOutcome& outcome) {
    outcomes.push_back(outcome);
  });
  for (int i = 0; i < 100; ++i) {
    fx.backend.submit(make_task(i, 3.0, 1, TaskModality::kFunction));
  }
  EXPECT_EQ(fx.backend.inflight(), 100u);
  fx.engine.run();
  ASSERT_EQ(outcomes.size(), 100u);
  for (const auto& outcome : outcomes) {
    EXPECT_TRUE(outcome.success) << outcome.id;
    EXPECT_NEAR(outcome.finished - outcome.started, 3.0, 1e-9) << outcome.id;
  }
  EXPECT_EQ(fx.backend.inflight(), 0u);
}

TEST(DragonBackend, QuiescentOnlyWithNothingInflightOrQueued) {
  Fixture fx(1);
  fx.backend.on_task_complete([](const platform::LaunchOutcome&) {});
  EXPECT_TRUE(fx.backend.quiescent());
  for (int i = 0; i < 60; ++i) fx.backend.submit(make_task(i, 10.0, 1));
  EXPECT_FALSE(fx.backend.quiescent());
  fx.engine.run(fx.engine.now() + 5.0);
  EXPECT_FALSE(fx.backend.quiescent());
  fx.engine.run();
  EXPECT_TRUE(fx.backend.quiescent());
}

TEST(DragonBackend, ShutdownFailsRunningTasksAndGoesUnhealthy) {
  Fixture fx(1);
  std::vector<platform::LaunchOutcome> outcomes;
  fx.backend.on_task_complete([&](const platform::LaunchOutcome& outcome) {
    outcomes.push_back(outcome);
  });
  for (int i = 0; i < 4; ++i) fx.backend.submit(make_task(i, 100.0, 1));
  fx.engine.run(fx.engine.now() + 10.0);
  fx.backend.shutdown();
  fx.engine.run();
  EXPECT_FALSE(fx.backend.healthy());
  ASSERT_EQ(outcomes.size(), 4u);
  for (const auto& outcome : outcomes) {
    EXPECT_FALSE(outcome.success);
    EXPECT_EQ(outcome.error, "backend shut down");
  }
  EXPECT_TRUE(fx.backend.quiescent());
}

// Recovery compares this summary: it names each runtime's health and
// capacity-queue depth.
TEST(DragonPartitions, RestoreSummaryNamesEachRuntime) {
  sim::Engine engine;
  Cluster cluster(frontier_spec(), 4);
  DragonBackend backend(engine, cluster, NodeRange{0, 4},
                        frontier_calibration().dragon, 42, 2);
  backend.bootstrap([](bool, const std::string&) {});
  engine.run();
  EXPECT_EQ(backend.restore_summary(),
            "dragon|healthy=1|inflight=0|r0=up:0|r1=up:0");
  backend.crash("fault", 1);
  EXPECT_EQ(backend.restore_summary(),
            "dragon|healthy=1|inflight=0|r0=up:0|r1=down:0");
  backend.crash("fault", 0);
  EXPECT_EQ(backend.restore_summary(),
            "dragon|healthy=0|inflight=0|r0=down:0|r1=down:0");
}

TEST(DragonPartitions, SplitsTheSpanIntoDisjointRuntimes) {
  sim::Engine engine;
  Cluster cluster(frontier_spec(), 8);
  DragonBackend backend(engine, cluster, NodeRange{0, 8},
                        frontier_calibration().dragon, 42, 4);
  ASSERT_EQ(backend.partitions(), 4);
  platform::NodeId next = 0;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(backend.runtime(i).span().first, next);
    EXPECT_EQ(backend.runtime(i).span().count, 2);
    next = backend.runtime(i).span().end();
  }
  EXPECT_EQ(next, 8);
  EXPECT_THROW(backend.runtime(4), std::out_of_range);
}

std::vector<std::string> bootstrap_components(int partitions) {
  sim::Engine engine;
  Cluster cluster(frontier_spec(), 4);
  DragonBackend backend(engine, cluster, NodeRange{0, 4},
                        frontier_calibration().dragon, 42, partitions);
  obs::Tracer tracer(engine, 64);
  backend.set_trace(obs::TraceHandle(&tracer));
  backend.bootstrap([](bool, const std::string&) {});
  engine.run();
  std::vector<std::string> components;
  tracer.for_each([&components](const obs::Record& record) {
    if (record.type == obs::SpanType::kBootstrap &&
        record.kind == obs::RecordKind::kBegin) {
      components.push_back(record.component);
    }
  });
  return components;
}

TEST(DragonBackend, SingleRuntimeTracesAsDragon) {
  EXPECT_EQ(bootstrap_components(1), std::vector<std::string>{"dragon"});
}

TEST(DragonPartitions, EachRuntimeTracesUnderItsIndex) {
  EXPECT_EQ(bootstrap_components(3),
            (std::vector<std::string>{"dragon.0", "dragon.1", "dragon.2"}));
}

}  // namespace
}  // namespace flotilla::dragon
