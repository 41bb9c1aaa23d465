#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/flotilla.hpp"
#include "dragon/dragon_backend.hpp"
#include "flux/flux_backend.hpp"
#include "util/error.hpp"

namespace flotilla::core {
namespace {

using platform::TaskModality;
using platform::frontier_spec;

// ------------------------------------------------------------------- Task

TEST(TaskStateMachine, HappyPathTransitions) {
  Task task("task.0", {});
  EXPECT_EQ(task.state(), TaskState::kNew);
  task.advance(TaskState::kTmgrScheduling, 1.0);
  task.advance(TaskState::kAgentScheduling, 2.0);
  task.advance(TaskState::kExecutorPending, 3.0);
  task.advance(TaskState::kRunning, 4.0);
  task.advance(TaskState::kDone, 5.0);
  EXPECT_TRUE(is_final(task.state()));
  sim::Time t = 0;
  ASSERT_TRUE(task.state_time(TaskState::kRunning, t));
  EXPECT_DOUBLE_EQ(t, 4.0);
  EXPECT_FALSE(task.state_time(TaskState::kFailed, t));
}

TEST(TaskStateMachine, RetryEdgeLoopsToAgentScheduling) {
  Task task("task.0", {});
  task.advance(TaskState::kTmgrScheduling, 1.0);
  task.advance(TaskState::kAgentScheduling, 2.0);
  task.advance(TaskState::kExecutorPending, 3.0);
  task.advance(TaskState::kRunning, 4.0);
  task.advance(TaskState::kAgentScheduling, 5.0);  // retry
  task.advance(TaskState::kExecutorPending, 6.0);
  task.advance(TaskState::kRunning, 7.0);
  task.advance(TaskState::kDone, 8.0);
  // First entry times are kept.
  sim::Time t = 0;
  ASSERT_TRUE(task.state_time(TaskState::kRunning, t));
  EXPECT_DOUBLE_EQ(t, 4.0);
}

TEST(TaskStateMachine, StateTimesKeepFirstEntryAndReportMissingStates) {
  Task task("task.0", {});
  task.advance(TaskState::kTmgrScheduling, 0.0);  // a zero time still counts
  task.advance(TaskState::kAgentScheduling, 2.0);
  task.advance(TaskState::kExecutorPending, 3.0);
  task.advance(TaskState::kAgentScheduling, 5.0);  // retry edge re-entry
  task.advance(TaskState::kExecutorPending, 6.0);
  task.advance(TaskState::kFailed, 7.0);
  sim::Time t = -1.0;
  ASSERT_TRUE(task.state_time(TaskState::kTmgrScheduling, t));
  EXPECT_DOUBLE_EQ(t, 0.0);
  ASSERT_TRUE(task.state_time(TaskState::kAgentScheduling, t));
  EXPECT_DOUBLE_EQ(t, 2.0);
  ASSERT_TRUE(task.state_time(TaskState::kExecutorPending, t));
  EXPECT_DOUBLE_EQ(t, 3.0);
  ASSERT_TRUE(task.state_time(TaskState::kFailed, t));
  EXPECT_DOUBLE_EQ(t, 7.0);
  t = -1.0;
  for (const TaskState never :
       {TaskState::kNew, TaskState::kStagingInput, TaskState::kRunning,
        TaskState::kStagingOutput, TaskState::kDone, TaskState::kCanceled}) {
    EXPECT_FALSE(task.state_time(never, t)) << to_string(never);
  }
  EXPECT_DOUBLE_EQ(t, -1.0);  // untouched on a miss
}

TEST(TaskStateMachine, IllegalTransitionsThrow) {
  Task task("task.0", {});
  EXPECT_THROW(task.advance(TaskState::kRunning, 1.0), util::Error);
  task.advance(TaskState::kTmgrScheduling, 1.0);
  EXPECT_THROW(task.advance(TaskState::kRunning, 2.0), util::Error);
  task.advance(TaskState::kCanceled, 3.0);
  EXPECT_THROW(task.advance(TaskState::kDone, 4.0), util::Error);
}

TEST(TaskStateMachine, FinalStatesAreTerminal) {
  EXPECT_TRUE(is_final(TaskState::kDone));
  EXPECT_TRUE(is_final(TaskState::kFailed));
  EXPECT_TRUE(is_final(TaskState::kCanceled));
  EXPECT_FALSE(is_final(TaskState::kRunning));
}

// ------------------------------------------------------------- end-to-end

struct PilotFixture {
  Session session;
  PilotManager pmgr;
  Pilot* pilot = nullptr;
  std::unique_ptr<TaskManager> tmgr;

  explicit PilotFixture(PilotDescription desc, int cluster_nodes = 0)
      : session(frontier_spec(),
                cluster_nodes ? cluster_nodes : desc.nodes, 42),
        pmgr(session) {
    pilot = &pmgr.submit(std::move(desc));
    bool ok = false;
    pilot->launch([&](bool success, const std::string&) { ok = success; });
    session.run(240.0);
    EXPECT_TRUE(ok);
    EXPECT_EQ(pilot->state(), PilotState::kActive);
    tmgr = std::make_unique<TaskManager>(session, pilot->agent());
  }
};

TaskDescription null_task(std::int64_t cores = 1) {
  TaskDescription desc;
  desc.demand.cores = cores;
  return desc;
}

TEST(Pilot, LaunchesWithFluxBackend) {
  PilotFixture fx({.nodes = 4, .backends = {{"flux", 2}}});
  EXPECT_EQ(fx.pilot->allocation().count, 4);
  EXPECT_EQ(fx.pilot->total_cores(), 224);
  EXPECT_EQ(fx.pilot->agent().backend_names(),
            (std::vector<std::string>{"flux"}));
}

TEST(Pilot, SplitsNodesAcrossBackends) {
  PilotFixture fx({.nodes = 8,
                   .backends = {{.type = "flux", .partitions = 2},
                                {.type = "dragon"}}});
  auto* fluxb = dynamic_cast<flux::FluxBackend*>(
      fx.pilot->agent().backend("flux"));
  ASSERT_NE(fluxb, nullptr);
  EXPECT_EQ(fluxb->partitions(), 2);
  EXPECT_EQ(fluxb->instance(0).partition().count, 2);  // 4 nodes / 2 parts
  auto* dragonb = fx.pilot->agent().backend("dragon");
  ASSERT_NE(dragonb, nullptr);
  EXPECT_TRUE(dragonb->healthy());
}

TEST(Pilot, ExplicitNodeCountsHonored) {
  PilotFixture fx({.nodes = 8,
                   .backends = {{.type = "flux", .partitions = 1, .nodes = 6},
                                {.type = "dragon", .nodes = 2}}});
  auto* fluxb = dynamic_cast<flux::FluxBackend*>(
      fx.pilot->agent().backend("flux"));
  ASSERT_NE(fluxb, nullptr);
  EXPECT_EQ(fluxb->instance(0).partition().count, 6);
}

TEST(Pilot, OverSubscribedBackendNodesThrow) {
  Session session(frontier_spec(), 4, 42);
  PilotManager pmgr(session);
  auto& pilot = pmgr.submit(
      {.nodes = 4, .backends = {{.type = "flux", .partitions = 1,
                                 .nodes = 8}}});
  EXPECT_THROW(pilot.launch([](bool, const std::string&) {}), util::Error);
}

TEST(PilotManager, AllocatesDisjointRanges) {
  Session session(frontier_spec(), 8, 42);
  PilotManager pmgr(session);
  auto& a = pmgr.submit({.nodes = 4, .backends = {{"dragon"}}});
  auto& b = pmgr.submit({.nodes = 4, .backends = {{"dragon"}}});
  EXPECT_EQ(a.allocation().first, 0);
  EXPECT_EQ(b.allocation().first, 4);
  EXPECT_THROW(pmgr.submit({.nodes = 1, .backends = {{"dragon"}}}),
               util::Error);
}

TEST(TaskManager, RunsTasksToCompletionThroughFullLifecycle) {
  PilotFixture fx({.nodes = 2, .backends = {{"flux", 1}}});
  std::vector<TaskState> finals;
  fx.tmgr->on_complete(
      [&](const Task& task) { finals.push_back(task.state()); });
  std::vector<TaskDescription> batch(50, null_task());
  const auto uids = fx.tmgr->submit(std::move(batch));
  fx.session.run();
  EXPECT_TRUE(fx.tmgr->idle());
  EXPECT_EQ(finals.size(), 50u);
  for (const auto state : finals) EXPECT_EQ(state, TaskState::kDone);
  // Every lifecycle timestamp is present and ordered.
  const auto& task = fx.tmgr->task(uids.front());
  sim::Time t_tmgr = 0, t_sched = 0, t_exec = 0, t_run = 0, t_done = 0;
  ASSERT_TRUE(task.state_time(TaskState::kTmgrScheduling, t_tmgr));
  ASSERT_TRUE(task.state_time(TaskState::kAgentScheduling, t_sched));
  ASSERT_TRUE(task.state_time(TaskState::kExecutorPending, t_exec));
  ASSERT_TRUE(task.state_time(TaskState::kRunning, t_run));
  ASSERT_TRUE(task.state_time(TaskState::kDone, t_done));
  EXPECT_LE(t_tmgr, t_sched);
  EXPECT_LE(t_sched, t_exec);
  EXPECT_LE(t_exec, t_run);
  EXPECT_LE(t_run, t_done);
}

TEST(Agent, RoutesByModalityInHybridPilot) {
  PilotFixture fx({.nodes = 4,
                   .backends = {{.type = "flux", .partitions = 1},
                                {.type = "dragon"}}});
  int done = 0;
  fx.tmgr->on_complete([&](const Task& task) {
    ++done;
    if (task.description().modality == TaskModality::kFunction) {
      EXPECT_EQ(task.backend(), "dragon");
    } else {
      EXPECT_EQ(task.backend(), "flux");
    }
  });
  for (int i = 0; i < 40; ++i) {
    auto desc = null_task();
    if (i % 2) desc.modality = TaskModality::kFunction;
    fx.tmgr->submit(std::move(desc));
  }
  fx.session.run();
  EXPECT_EQ(done, 40);
}

TEST(Agent, HonorsBackendHint) {
  PilotFixture fx({.nodes = 4,
                   .backends = {{.type = "flux", .partitions = 1},
                                {.type = "dragon"}}});
  std::string backend_used;
  fx.tmgr->on_complete(
      [&](const Task& task) { backend_used = task.backend(); });
  auto desc = null_task();
  desc.backend_hint = "dragon";  // executable, but force dragon
  fx.tmgr->submit(std::move(desc));
  fx.session.run();
  EXPECT_EQ(backend_used, "dragon");
}

TEST(Agent, RetriesFailedTasksWithinBudget) {
  PilotFixture fx({.nodes = 2, .backends = {{"flux", 1}}});
  int done = 0, failed = 0;
  fx.tmgr->on_complete([&](const Task& task) {
    task.state() == TaskState::kDone ? ++done : ++failed;
  });
  for (int i = 0; i < 200; ++i) {
    auto desc = null_task();
    desc.fail_probability = 0.5;
    desc.max_retries = 4;
    fx.tmgr->submit(std::move(desc));
  }
  fx.session.run();
  EXPECT_EQ(done + failed, 200);
  // P(fail 5 attempts) = 0.5^5 ~ 3%; with retries nearly all succeed.
  EXPECT_GT(done, 180);
  EXPECT_GT(fx.pilot->agent().profiler().metrics().tasks_retried(), 50u);
}

TEST(Agent, ZeroRetryBudgetFailsImmediately) {
  PilotFixture fx({.nodes = 2, .backends = {{"flux", 1}}});
  int failed = 0;
  fx.tmgr->on_complete([&](const Task& task) {
    if (task.state() == TaskState::kFailed) {
      ++failed;
      EXPECT_FALSE(task.error().empty());
      EXPECT_EQ(task.attempts(), 1);
    }
  });
  auto desc = null_task();
  desc.fail_probability = 1.0;
  fx.tmgr->submit(std::move(desc));
  fx.session.run();
  EXPECT_EQ(failed, 1);
}

TEST(Agent, FailsOverToSurvivingBackendAfterCrash) {
  PilotFixture fx({.nodes = 4,
                   .backends = {{.type = "flux", .partitions = 1},
                                {.type = "dragon"}}});
  int done = 0, failed = 0;
  fx.tmgr->on_complete([&](const Task& task) {
    task.state() == TaskState::kDone ? ++done : ++failed;
  });
  // Long-running executables, routed to flux by preference.
  for (int i = 0; i < 30; ++i) {
    auto desc = null_task();
    desc.duration = 1000.0;
    desc.max_retries = 2;
    fx.tmgr->submit(std::move(desc));
  }
  const auto before = fx.session.now();
  fx.session.run(before + 500.0);  // tasks are running on flux
  auto* fluxb = dynamic_cast<flux::FluxBackend*>(
      fx.pilot->agent().backend("flux"));
  ASSERT_NE(fluxb, nullptr);
  fluxb->crash_instance(0, "broker crashed");
  fx.session.run();
  EXPECT_EQ(done + failed, 30);
  EXPECT_EQ(failed, 0);  // every task retried successfully on dragon
  EXPECT_EQ(done, 30);
  // The retried attempts ran on the surviving backend.
  EXPECT_GT(fx.pilot->agent().profiler().metrics().tasks_retried(), 0u);
}

TEST(Agent, TasksFailWhenNoBackendAcceptsModality) {
  PilotFixture fx({.nodes = 2, .backends = {{"flux", 1}}});
  TaskState final_state = TaskState::kNew;
  std::string error;
  fx.tmgr->on_complete([&](const Task& task) {
    final_state = task.state();
    error = task.error();
  });
  auto desc = null_task();
  desc.modality = TaskModality::kFunction;  // flux rejects functions
  fx.tmgr->submit(std::move(desc));
  fx.session.run();
  EXPECT_EQ(final_state, TaskState::kFailed);
  EXPECT_NE(error.find("no healthy backend"), std::string::npos);
}

TEST(Pilot, DegradedBootstrapReportsPartialFailure) {
  // dragon hangs during bootstrap; flux survives -> pilot comes up degraded
  // and still executes executables.
  Session session(frontier_spec(), 4, 42);
  PilotManager pmgr(session);
  auto& pilot = pmgr.submit({.nodes = 4,
                             .backends = {{.type = "flux", .partitions = 1},
                                          {.type = "dragon"}}});
  // Pre-launch hook: mark dragon to fail. We need the backend built first,
  // so launch then poke before bootstrap completes is racy; instead build
  // via launch and flag through the backend pointer immediately.
  bool ok = false;
  std::string error;
  pilot.launch([&](bool success, const std::string& e) {
    ok = success;
    error = e;
  });
  auto* dragonb =
      dynamic_cast<dragon::DragonBackend*>(pilot.agent().backend("dragon"));
  ASSERT_NE(dragonb, nullptr);
  dragonb->set_fail_bootstrap();
  session.run(240.0);
  EXPECT_TRUE(ok);  // degraded, not dead
  EXPECT_NE(error.find("dragon"), std::string::npos);
  EXPECT_EQ(pilot.state(), PilotState::kActive);
}

TEST(Pilot, AllBackendsFailingFailsThePilot) {
  Session session(frontier_spec(), 4, 42);
  PilotManager pmgr(session);
  auto& pilot = pmgr.submit({.nodes = 4, .backends = {{"dragon"}}});
  bool ok = true;
  pilot.launch([&](bool success, const std::string&) { ok = success; });
  auto* dragonb =
      dynamic_cast<dragon::DragonBackend*>(pilot.agent().backend("dragon"));
  ASSERT_NE(dragonb, nullptr);
  dragonb->set_fail_bootstrap();
  session.run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(pilot.state(), PilotState::kFailed);
}

TEST(Pilot, CancelShutsDownBackends) {
  PilotFixture fx({.nodes = 2, .backends = {{"flux", 1}}});
  fx.pilot->cancel();
  EXPECT_EQ(fx.pilot->state(), PilotState::kCanceled);
  EXPECT_FALSE(fx.pilot->agent().backend("flux")->healthy());
}

TEST(Profiler, MetricsTrackLaunchesAndUtilization) {
  PilotFixture fx({.nodes = 2, .backends = {{"flux", 1}}});
  fx.tmgr->on_complete([](const Task&) {});
  // 2 waves of 112 single-core 100 s tasks on 112 cores.
  for (int i = 0; i < 224; ++i) {
    auto desc = null_task();
    desc.duration = 100.0;
    fx.tmgr->submit(std::move(desc));
  }
  fx.session.run();
  const auto& metrics = fx.pilot->agent().profiler().metrics();
  EXPECT_EQ(metrics.tasks_done(), 224u);
  EXPECT_EQ(metrics.tasks_failed(), 0u);
  EXPECT_EQ(metrics.launch_series().total(), 224u);
  EXPECT_NEAR(metrics.peak_concurrency(), 112.0, 1.0);
  EXPECT_GT(metrics.core_utilization(fx.pilot->total_cores()), 0.85);
  EXPECT_GT(metrics.makespan(), 200.0);
}

TEST(Profiler, TraceRecordsTaskEventsWhenEnabled) {
  PilotFixture fx({.nodes = 2, .backends = {{"flux", 1}},
                   .trace_tasks = true});
  fx.tmgr->on_complete([](const Task&) {});
  fx.tmgr->submit(null_task());
  fx.session.run();
  EXPECT_FALSE(fx.session.trace().select("task_exec_start").empty());
  EXPECT_FALSE(fx.session.trace().select("task_done").empty());
}

// ---------------------------------------------------------------- Session

TEST(Session, HybridStackRunsOnOneSerialEngine) {
  // The whole stack shares one single-shard engine: every completion, from
  // any flux partition or the dragon runtime, is delivered on the control
  // shard in nondecreasing virtual time.
  PilotFixture fx({.nodes = 4,
                   .backends = {{.type = "flux", .partitions = 2},
                                {.type = "dragon"}}});
  EXPECT_EQ(fx.session.engine().shards(), 1);
  EXPECT_EQ(fx.session.engine().threads(), 1);
  int done = 0;
  int off_control = 0;
  sim::Time last = 0.0;
  bool ordered = true;
  fx.tmgr->on_complete([&](const Task&) {
    ++done;
    if (fx.session.engine().current_shard() != sim::kControlShard) {
      ++off_control;
    }
    if (fx.session.now() < last) ordered = false;
    last = fx.session.now();
  });
  for (int i = 0; i < 40; ++i) {
    auto desc = null_task();
    if (i % 2) desc.modality = TaskModality::kFunction;
    fx.tmgr->submit(std::move(desc));
  }
  fx.session.run();
  EXPECT_EQ(done, 40);
  EXPECT_EQ(off_control, 0);
  EXPECT_TRUE(ordered);
}

}  // namespace
}  // namespace flotilla::core
