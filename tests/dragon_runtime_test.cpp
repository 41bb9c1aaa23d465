// The simulated Dragon runtime on its own, below DragonBackend: bootstrap,
// the central dispatcher, the function and process launch paths, the
// capacity queue, crashes, failure injection, determinism and tracing.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dragon/runtime.hpp"
#include "obs/tracer.hpp"
#include "platform/calibration.hpp"
#include "platform/cluster.hpp"
#include "sched/queue.hpp"
#include "util/error.hpp"
#include "util/strfmt.hpp"

namespace flotilla::dragon {
namespace {

using platform::Cluster;
using platform::NodeRange;
using platform::TaskModality;
using platform::frontier_calibration;
using platform::frontier_spec;

constexpr std::int64_t kCoresPerNode = 56;  // a Frontier node

platform::LaunchRequest make_task(const std::string& id, double duration,
                                  std::int64_t cores = 1,
                                  TaskModality modality =
                                      TaskModality::kExecutable) {
  platform::LaunchRequest req;
  req.id = id;
  req.demand.cores = cores;
  req.duration = duration;
  req.modality = modality;
  return req;
}

// A copy of one TaskEvent, plus the virtual time it was delivered at.
struct Seen {
  TaskEvent::Kind kind;
  std::string id;
  bool success;
  std::string note;
  sim::Time started;
  sim::Time finished;
  sim::Time at;

  friend bool operator==(const Seen&, const Seen&) = default;
};

struct Fixture {
  sim::Engine engine;
  Cluster cluster;
  Runtime runtime;
  std::vector<Seen> events;

  explicit Fixture(int nodes, std::uint64_t seed = 42, bool boot = true)
      : cluster(frontier_spec(), nodes),
        runtime(engine, cluster, NodeRange{0, nodes},
                frontier_calibration().dragon, seed) {
    runtime.on_event([this](const TaskEvent& e) {
      events.push_back(Seen{e.kind, e.id, e.success, std::string(e.note),
                            e.started, e.finished, engine.now()});
    });
    if (!boot) return;
    bool ready = false;
    runtime.bootstrap([&ready] { ready = true; });
    engine.run();
    EXPECT_TRUE(ready);
  }

  std::vector<Seen> of_kind(TaskEvent::Kind kind) const {
    std::vector<Seen> out;
    for (const Seen& e : events) {
      if (e.kind == kind) out.push_back(e);
    }
    return out;
  }
  std::vector<Seen> starts() const { return of_kind(TaskEvent::Kind::kStart); }
  std::vector<Seen> finishes() const {
    return of_kind(TaskEvent::Kind::kFinish);
  }
};

std::vector<std::string> ids(const std::vector<Seen>& events) {
  std::vector<std::string> out;
  for (const Seen& e : events) out.push_back(e.id);
  return out;
}

// Virtual time from execute() to the start event of a single task.
sim::Time start_latency(platform::LaunchRequest request, int nodes = 4) {
  Fixture fx(nodes);
  const sim::Time submitted = fx.engine.now();
  fx.runtime.execute(std::move(request));
  fx.engine.run();
  const auto starts = fx.starts();
  EXPECT_EQ(starts.size(), 1u);
  return starts.empty() ? 0.0 : starts.front().started - submitted;
}

// ------------------------------------------------------------ construction

TEST(DragonRuntime, RejectsAnEmptySpan) {
  sim::Engine engine;
  Cluster cluster(frontier_spec(), 2);
  EXPECT_THROW(Runtime(engine, cluster, NodeRange{0, 0},
                       frontier_calibration().dragon, 42),
               util::Error);
}

TEST(DragonRuntime, RejectsASpanBeyondTheCluster) {
  sim::Engine engine;
  Cluster cluster(frontier_spec(), 2);
  EXPECT_THROW(Runtime(engine, cluster, NodeRange{1, 2},
                       frontier_calibration().dragon, 42),
               util::Error);
}

// ---------------------------------------------------------------- bootstrap

TEST(DragonRuntime, ExecuteBeforeBootstrapThrows) {
  Fixture fx(1, 42, /*boot=*/false);
  EXPECT_THROW(fx.runtime.execute(make_task("task.0", 1.0)), util::Error);
}

TEST(DragonRuntime, BootstrappingTwiceThrows) {
  Fixture fx(1);
  EXPECT_THROW(fx.runtime.bootstrap([] {}), util::Error);
}

TEST(DragonRuntime, ReadyOnlyOnceTheOverlayIsUp) {
  Fixture fx(4, 42, /*boot=*/false);
  sim::Time ready_at = -1.0;
  fx.runtime.bootstrap([&] {
    EXPECT_TRUE(fx.runtime.ready());
    ready_at = fx.engine.now();
  });
  EXPECT_FALSE(fx.runtime.ready());
  fx.engine.run();
  EXPECT_TRUE(fx.runtime.ready());
  EXPECT_GT(ready_at, 0.0);
  EXPECT_DOUBLE_EQ(fx.runtime.bootstrap_duration(), ready_at);
  EXPECT_TRUE(fx.runtime.healthy());
}

TEST(DragonRuntime, BootstrapCompletesWithoutAReadyHandler) {
  Fixture fx(2, 42, /*boot=*/false);
  fx.runtime.bootstrap(nullptr);
  fx.engine.run();
  EXPECT_TRUE(fx.runtime.ready());
}

TEST(DragonRuntime, HungBootstrapNeverReportsReady) {
  Fixture fx(2, 42, /*boot=*/false);
  fx.runtime.fail_silently = true;
  bool called = false;
  fx.runtime.bootstrap([&called] { called = true; });
  fx.engine.run();
  EXPECT_FALSE(called);
  EXPECT_FALSE(fx.runtime.ready());
  EXPECT_EQ(fx.runtime.bootstrap_duration(), 0.0);
}

// bootstrap_base + bootstrap_per_node * nodes: 8.68 s at 4 nodes, 18.84 s
// at 512, with a 9% jitter.
TEST(DragonRuntime, BootstrapGrowsWithTheSpan) {
  const auto cal = frontier_calibration().dragon;
  Fixture small(4);
  Fixture large(512);
  EXPECT_NEAR(small.runtime.bootstrap_duration(),
              cal.bootstrap_base + 4 * cal.bootstrap_per_node, 2.0);
  EXPECT_NEAR(large.runtime.bootstrap_duration(),
              cal.bootstrap_base + 512 * cal.bootstrap_per_node, 4.0);
  EXPECT_GT(large.runtime.bootstrap_duration(),
            small.runtime.bootstrap_duration() + 5.0);
}

// ---------------------------------------------------------------- lifecycle

TEST(DragonRuntime, EachTaskStartsOnceThenFinishesOnce) {
  Fixture fx(2);
  for (int i = 0; i < 20; ++i) {
    fx.runtime.execute(make_task(util::cat("task.", i), 1.0 + i));
  }
  fx.engine.run();
  const auto starts = fx.starts();
  const auto finishes = fx.finishes();
  ASSERT_EQ(starts.size(), 20u);
  ASSERT_EQ(finishes.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    const std::string id = util::cat("task.", i);
    int seen_start = -1, seen_finish = -1;
    for (std::size_t k = 0; k < fx.events.size(); ++k) {
      if (fx.events[k].id != id) continue;
      if (fx.events[k].kind == TaskEvent::Kind::kStart) {
        EXPECT_EQ(seen_start, -1) << id;
        seen_start = static_cast<int>(k);
      } else {
        EXPECT_EQ(seen_finish, -1) << id;
        seen_finish = static_cast<int>(k);
      }
    }
    EXPECT_GE(seen_start, 0) << id;
    EXPECT_GT(seen_finish, seen_start) << id;
  }
}

TEST(DragonRuntime, FinishEventsCarryTheStartTimeAndRunFullDuration) {
  Fixture fx(1);
  fx.runtime.execute(make_task("task.a", 5.0));
  fx.runtime.execute(make_task("task.b", 0.0));
  fx.engine.run();
  const auto starts = fx.starts();
  const auto finishes = fx.finishes();
  ASSERT_EQ(starts.size(), 2u);
  ASSERT_EQ(finishes.size(), 2u);
  for (const Seen& start : starts) {
    EXPECT_EQ(start.at, start.started);
    EXPECT_EQ(start.finished, 0.0);
  }
  // The null task finishes first, at its own start time.
  EXPECT_EQ(finishes[0].id, "task.b");
  EXPECT_EQ(finishes[0].finished, finishes[0].started);
  EXPECT_EQ(finishes[0].started, starts[1].started);
  EXPECT_EQ(finishes[1].id, "task.a");
  EXPECT_EQ(finishes[1].started, starts[0].started);
  EXPECT_NEAR(finishes[1].finished - finishes[1].started, 5.0, 1e-9);
  for (const Seen& finish : finishes) {
    EXPECT_TRUE(finish.success);
    EXPECT_TRUE(finish.note.empty());
    EXPECT_EQ(finish.at, finish.finished);
  }
}

TEST(DragonRuntime, CountersFollowTheTasks) {
  Fixture fx(1);
  for (int i = 0; i < 3; ++i) {
    fx.runtime.execute(make_task(util::cat("task.", i), 10.0));
  }
  EXPECT_EQ(fx.runtime.running(), 0u);  // all still in the dispatcher
  fx.engine.run(fx.engine.now() + 5.0);
  EXPECT_EQ(fx.runtime.running(), 3u);
  EXPECT_EQ(fx.runtime.pending(), 0u);
  EXPECT_EQ(fx.runtime.completed(), 0u);
  fx.engine.run();
  EXPECT_EQ(fx.runtime.running(), 0u);
  EXPECT_EQ(fx.runtime.completed(), 3u);
  EXPECT_EQ(fx.cluster.free_cores(NodeRange{0, 1}), kCoresPerNode);
}

TEST(DragonRuntime, RunsTasksWithoutAnEventHandler) {
  sim::Engine engine;
  Cluster cluster(frontier_spec(), 1);
  Runtime runtime(engine, cluster, NodeRange{0, 1},
                  frontier_calibration().dragon, 42);
  runtime.bootstrap(nullptr);
  engine.run();
  for (int i = 0; i < 10; ++i) {
    runtime.execute(make_task(util::cat("task.", i), 1.0));
  }
  engine.run();
  EXPECT_EQ(runtime.completed(), 10u);
  EXPECT_EQ(runtime.running(), 0u);
}

// ------------------------------------------------------------- launch paths

// dispatch_func + func_start (1.3 ms) against dispatch_exec +
// node_spawn_exec (6.8 ms): the warm-worker function lane of the hybrid
// experiment.
TEST(DragonRuntime, FunctionTaskStartsSoonerThanAProcess) {
  const sim::Time func =
      start_latency(make_task("task.f", 0.0, 1, TaskModality::kFunction));
  const sim::Time exec = start_latency(make_task("task.e", 0.0, 1));
  EXPECT_GT(func, 0.0);
  EXPECT_LT(func, 3e-3);
  EXPECT_GT(exec, 4e-3);
  EXPECT_LT(exec, 12e-3);
  EXPECT_GT(exec, 2.0 * func);
}

// A process group over two nodes pays PMI wireup: 0.5 s + 15 ms/node.
TEST(DragonRuntime, MultiNodeGroupPaysWireup) {
  const auto cal = frontier_calibration().dragon;
  const sim::Time single = start_latency(make_task("task.1", 0.0, 8));
  const sim::Time group =
      start_latency(make_task("task.2", 0.0, 2 * kCoresPerNode));
  EXPECT_LT(single, 0.05);
  EXPECT_GT(group, 0.5 * (cal.mpi_wireup_base + 2 * cal.mpi_wireup_per_node));
  EXPECT_LT(group, 2.0 * (cal.mpi_wireup_base + 2 * cal.mpi_wireup_per_node));
}

// At 1,000 nodes infrastructure traffic would take seven times the
// dispatcher; the share is capped at 85%, so dispatch slows to
// dispatch_exec / 0.15 per task instead of stalling.
TEST(DragonRuntime, InfrastructureShareIsCapped) {
  const auto cal = frontier_calibration().dragon;
  Fixture fx(1000);
  const sim::Time t0 = fx.engine.now();
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    fx.runtime.execute(make_task(util::cat("task.", i), 0.0));
  }
  fx.engine.run();
  const auto starts = fx.starts();
  ASSERT_EQ(starts.size(), static_cast<std::size_t>(n));
  const double per_task = (starts.back().started - t0) / n;
  EXPECT_NEAR(per_task, cal.dispatch_exec / 0.15,
              0.1 * cal.dispatch_exec / 0.15);
  for (const Seen& finish : fx.finishes()) EXPECT_TRUE(finish.success);
}

// Every task passes through the one dispatcher, so starts on separate
// nodes still come out one at a time.
TEST(DragonRuntime, DispatcherSerializesStartsAcrossNodes) {
  Fixture fx(16);
  for (int i = 0; i < 64; ++i) {
    fx.runtime.execute(make_task(util::cat("task.", i), 100.0, kCoresPerNode));
  }
  fx.engine.run(fx.engine.now() + 50.0);
  const auto starts = fx.starts();
  ASSERT_EQ(starts.size(), 16u);  // one whole-node task per node
  EXPECT_EQ(fx.runtime.pending(), 48u);
  for (std::size_t i = 1; i < starts.size(); ++i) {
    EXPECT_LT(starts[i - 1].started, starts[i].started);
  }
}

// --------------------------------------------------------- capacity queue

TEST(DragonRuntime, WaitersStartInArrivalOrder) {
  Fixture fx(1);
  for (int i = 0; i < kCoresPerNode; ++i) {
    fx.runtime.execute(make_task(util::cat("fill.", i), 100.0));
  }
  for (const char* id : {"wait.c", "wait.a", "wait.b"}) {
    fx.runtime.execute(make_task(id, 1.0));
  }
  fx.engine.run(fx.engine.now() + 50.0);
  EXPECT_EQ(fx.runtime.pending(), 3u);
  EXPECT_EQ(fx.runtime.running(), static_cast<std::size_t>(kCoresPerNode));
  fx.engine.run();
  const auto starts = fx.starts();
  ASSERT_EQ(starts.size(), static_cast<std::size_t>(kCoresPerNode) + 3);
  EXPECT_EQ(ids(std::vector<Seen>(starts.end() - 3, starts.end())),
            (std::vector<std::string>{"wait.c", "wait.a", "wait.b"}));
  EXPECT_EQ(fx.runtime.pending(), 0u);
}

TEST(DragonRuntime, PriorityPolicyReordersTheCapacityQueue) {
  Fixture fx(1);
  fx.runtime.set_queue_policy(std::make_unique<sched::PriorityFifoPolicy>());
  for (int i = 0; i < kCoresPerNode; ++i) {
    fx.runtime.execute(make_task(util::cat("fill.", i), 100.0));
  }
  const std::vector<std::pair<std::string, int>> waiters = {
      {"low", 1}, {"high", 30}, {"mid", 16}, {"high2", 30}};
  for (const auto& [id, priority] : waiters) {
    auto req = make_task(id, 1.0);
    req.priority = priority;
    fx.runtime.execute(std::move(req));
  }
  fx.engine.run();
  const auto starts = fx.starts();
  ASSERT_EQ(starts.size(), static_cast<std::size_t>(kCoresPerNode) + 4);
  EXPECT_EQ(ids(std::vector<Seen>(starts.end() - 4, starts.end())),
            (std::vector<std::string>{"high", "high2", "mid", "low"}));
}

// Dragon has no scheduler of its own: a task no node can hold waits in
// the capacity queue, and tasks after it still run.
TEST(DragonRuntime, OversizedTaskWaitsWithoutBlockingLaterArrivals) {
  Fixture fx(1);
  fx.runtime.execute(make_task("huge", 1.0, 2 * kCoresPerNode));
  fx.runtime.execute(make_task("small", 1.0));
  fx.engine.run();
  EXPECT_EQ(ids(fx.starts()), std::vector<std::string>{"small"});
  EXPECT_EQ(fx.runtime.pending(), 1u);
  EXPECT_EQ(fx.runtime.completed(), 1u);
}

// ------------------------------------------------------------------ crashes

TEST(DragonRuntime, CrashFailsRunningTasksInUidOrderAndFreesTheSpan) {
  Fixture fx(2);
  for (const char* id : {"task.d", "task.b", "task.c", "task.a"}) {
    fx.runtime.execute(make_task(id, 100.0, 8));
  }
  fx.engine.run(fx.engine.now() + 10.0);
  ASSERT_EQ(fx.starts().size(), 4u);
  fx.runtime.crash("node fault");
  EXPECT_FALSE(fx.runtime.healthy());
  EXPECT_EQ(fx.runtime.running(), 0u);
  EXPECT_EQ(fx.cluster.free_cores(NodeRange{0, 2}), 2 * kCoresPerNode);
  fx.engine.run();
  const auto finishes = fx.finishes();
  EXPECT_EQ(ids(finishes), (std::vector<std::string>{"task.a", "task.b",
                                                     "task.c", "task.d"}));
  for (const Seen& finish : finishes) {
    EXPECT_FALSE(finish.success);
    EXPECT_EQ(finish.note, "node fault");
    EXPECT_GT(finish.started, 0.0);  // they had started
  }
  EXPECT_EQ(fx.runtime.completed(), 0u);
}

TEST(DragonRuntime, CrashFailsQueuedWaitersToo) {
  Fixture fx(1);
  for (int i = 0; i < kCoresPerNode; ++i) {
    fx.runtime.execute(make_task(util::cat("fill.", i), 100.0));
  }
  fx.runtime.execute(make_task("waiter", 1.0));
  fx.engine.run(fx.engine.now() + 50.0);
  ASSERT_EQ(fx.runtime.pending(), 1u);
  fx.runtime.crash("lost");
  EXPECT_EQ(fx.runtime.pending(), 0u);
  const auto finishes = fx.finishes();
  ASSERT_EQ(finishes.size(), static_cast<std::size_t>(kCoresPerNode) + 1);
  // Queued waiters are reaped first; they never started.
  EXPECT_EQ(finishes.front().id, "waiter");
  EXPECT_EQ(finishes.front().started, 0.0);
  fx.engine.run();
  EXPECT_EQ(fx.finishes().size(), finishes.size());  // nothing fires later
  EXPECT_EQ(fx.starts().size(), static_cast<std::size_t>(kCoresPerNode));
}

TEST(DragonRuntime, CrashIsReportedOnce) {
  Fixture fx(1);
  fx.runtime.execute(make_task("task.0", 100.0));
  fx.engine.run(fx.engine.now() + 10.0);
  fx.runtime.crash("first");
  fx.runtime.crash("second");
  fx.engine.run();
  const auto finishes = fx.finishes();
  ASSERT_EQ(finishes.size(), 1u);
  EXPECT_EQ(finishes[0].note, "first");
}

TEST(DragonRuntime, ExecuteAfterCrashFailsAtOnce) {
  Fixture fx(1);
  fx.runtime.crash("gone");
  const sim::Time now = fx.engine.now();
  fx.runtime.execute(make_task("late", 1.0));
  ASSERT_EQ(fx.events.size(), 1u);  // synchronously, before any event runs
  EXPECT_EQ(fx.events[0].kind, TaskEvent::Kind::kFinish);
  EXPECT_FALSE(fx.events[0].success);
  EXPECT_EQ(fx.events[0].note, "runtime down");
  EXPECT_EQ(fx.events[0].finished, now);
  fx.engine.run();
  EXPECT_EQ(fx.events.size(), 1u);
}

// A task still in the dispatcher when the runtime dies fails as it leaves
// the dispatcher, and only then.
TEST(DragonRuntime, TaskInTheDispatcherFailsWhenItLeaves) {
  Fixture fx(1);
  fx.runtime.execute(make_task("in-flight", 1.0));
  fx.runtime.crash("gone");
  EXPECT_TRUE(fx.events.empty());
  fx.engine.run();
  ASSERT_EQ(fx.events.size(), 1u);
  EXPECT_EQ(fx.events[0].kind, TaskEvent::Kind::kFinish);
  EXPECT_EQ(fx.events[0].note, "runtime down");
  EXPECT_GT(fx.events[0].finished, 0.0);
}

// A placed task still in PMI wireup when the runtime dies never starts.
TEST(DragonRuntime, CrashDuringWireupSuppressesTheStart) {
  Fixture fx(2);
  fx.runtime.execute(make_task("group", 10.0, 2 * kCoresPerNode));
  fx.engine.run(fx.engine.now() + 0.1);  // dispatched, still wiring up
  ASSERT_EQ(fx.runtime.running(), 1u);
  ASSERT_TRUE(fx.events.empty());
  fx.runtime.crash("gone");
  fx.engine.run();
  EXPECT_TRUE(fx.starts().empty());
  const auto finishes = fx.finishes();
  ASSERT_EQ(finishes.size(), 1u);
  EXPECT_EQ(finishes[0].note, "gone");
  EXPECT_EQ(finishes[0].started, 0.0);
  EXPECT_EQ(fx.cluster.free_cores(NodeRange{0, 2}), 2 * kCoresPerNode);
}

// ------------------------------------------------------- failure injection

TEST(DragonRuntime, CertainFailureFailsEveryTaskAfterItRuns) {
  Fixture fx(1);
  for (int i = 0; i < 10; ++i) {
    auto req =
        make_task(util::cat("task.", i), 2.0, 1, TaskModality::kFunction);
    req.fail_probability = 1.0;
    fx.runtime.execute(std::move(req));
  }
  fx.engine.run();
  EXPECT_EQ(fx.starts().size(), 10u);
  const auto finishes = fx.finishes();
  ASSERT_EQ(finishes.size(), 10u);
  for (const Seen& finish : finishes) {
    EXPECT_FALSE(finish.success);
    EXPECT_EQ(finish.note, "worker exited non-zero");
    EXPECT_NEAR(finish.finished - finish.started, 2.0, 1e-9);
  }
  // A failed payload still ran to completion and gave its cores back.
  EXPECT_EQ(fx.runtime.completed(), 10u);
  EXPECT_EQ(fx.cluster.free_cores(NodeRange{0, 1}), kCoresPerNode);
}

// ------------------------------------------------------------- determinism

std::vector<Seen> mixed_timeline(std::uint64_t seed) {
  Fixture fx(4, seed);
  for (int i = 0; i < 300; ++i) {
    auto req = make_task(util::cat("task.", i), 0.5 * (i % 7),
                         1 + (i % 5) * 11,
                         i % 2 ? TaskModality::kFunction
                               : TaskModality::kExecutable);
    req.fail_probability = 0.1;
    fx.runtime.execute(std::move(req));
  }
  fx.engine.run();
  EXPECT_EQ(fx.finishes().size(), 300u);
  return fx.events;
}

TEST(DragonRuntime, SameSeedGivesTheSameTimeline) {
  EXPECT_EQ(mixed_timeline(7), mixed_timeline(7));
}

TEST(DragonRuntime, SeedChangesTheTimeline) {
  EXPECT_NE(mixed_timeline(7), mixed_timeline(8));
}

// ------------------------------------------------------------------ tracing

std::vector<obs::Record> records_of(const obs::Tracer& tracer) {
  std::vector<obs::Record> out;
  tracer.for_each([&out](const obs::Record& r) { out.push_back(r); });
  return out;
}

TEST(DragonRuntime, TracesTheBootstrapSpanUnderItsComponent) {
  Fixture fx(3, 42, /*boot=*/false);
  obs::Tracer tracer(fx.engine, 64);
  fx.runtime.set_trace(obs::TraceHandle(&tracer), "dragon.2");
  fx.runtime.bootstrap(nullptr);
  fx.engine.run();
  const auto records = records_of(tracer);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].kind, obs::RecordKind::kBegin);
  EXPECT_EQ(records[1].kind, obs::RecordKind::kEnd);
  for (const auto& record : records) {
    EXPECT_EQ(record.type, obs::SpanType::kBootstrap);
    EXPECT_EQ(record.component, "dragon.2");
  }
  EXPECT_EQ(records[0].value, 3.0);  // span node count
  EXPECT_EQ(records[0].time, 0.0);
  EXPECT_DOUBLE_EQ(records[1].time, fx.runtime.bootstrap_duration());
}

TEST(DragonRuntime, HungBootstrapLeavesItsSpanOpen) {
  Fixture fx(1, 42, /*boot=*/false);
  obs::Tracer tracer(fx.engine, 64);
  fx.runtime.set_trace(obs::TraceHandle(&tracer), "dragon");
  fx.runtime.fail_silently = true;
  fx.runtime.bootstrap(nullptr);
  fx.engine.run();
  const auto records = records_of(tracer);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind, obs::RecordKind::kBegin);
  EXPECT_EQ(records[0].type, obs::SpanType::kBootstrap);
}

TEST(DragonRuntime, TracesCapacityWaitsByTaskUid) {
  Fixture fx(1);
  obs::Tracer tracer(fx.engine, 1024);
  fx.runtime.set_trace(obs::TraceHandle(&tracer), "dragon");
  for (int i = 0; i < kCoresPerNode; ++i) {
    fx.runtime.execute(make_task(util::cat("fill.", i), 100.0));
  }
  fx.runtime.execute(make_task("waiter", 1.0));
  fx.engine.run();
  std::vector<obs::RecordKind> waits;
  for (const auto& record : records_of(tracer)) {
    if (record.type != obs::SpanType::kTaskQueueWait) continue;
    EXPECT_EQ(record.entity, "waiter");
    EXPECT_EQ(record.component, "dragon");
    waits.push_back(record.kind);
  }
  EXPECT_EQ(waits, (std::vector<obs::RecordKind>{obs::RecordKind::kBegin,
                                                 obs::RecordKind::kEnd}));
}

TEST(DragonRuntime, UntracedRuntimeRecordsNothing) {
  Fixture fx(1, 42, /*boot=*/false);
  obs::Tracer tracer(fx.engine, 64);
  fx.runtime.bootstrap(nullptr);
  fx.engine.run();
  fx.runtime.execute(make_task("task.0", 1.0));
  fx.engine.run();
  EXPECT_EQ(tracer.recorded(), 0u);
}

}  // namespace
}  // namespace flotilla::dragon
