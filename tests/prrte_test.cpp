// Tests for the PRRTE DVM backend and the agent-side scheduling path it
// requires (§5: PRRTE "delegates coordination and scheduling to external
// systems" — here, RP's agent).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/flotilla.hpp"
#include "prrte/dvm_backend.hpp"
#include "sched/placement_policy.hpp"
#include "util/error.hpp"
#include "util/strfmt.hpp"

namespace flotilla::prrte {
namespace {

using platform::Cluster;
using platform::NodeRange;
using platform::frontier_calibration;
using platform::frontier_spec;

// --------------------------------------------------------------- backend

struct DvmFixture {
  sim::Engine engine;
  Cluster cluster{frontier_spec(), 4};
  DvmBackend backend{engine, cluster, NodeRange{0, 4},
                     frontier_calibration().prrte, 42};

  DvmFixture() {
    bool ready = false;
    backend.bootstrap([&](bool ok, const std::string&) { ready = ok; });
    engine.run(60.0);
    EXPECT_TRUE(ready);
  }

  platform::NodeId cursor = 0;

  // Builds a preplaced request, the way the agent does (rotating cursor
  // spreads tasks over the daemons).
  platform::LaunchRequest preplaced(int i, double duration,
                                    std::int64_t cores) {
    platform::LaunchRequest req;
    req.id = util::cat("task.", i);
    req.demand.cores = cores;
    req.duration = duration;
    auto placement =
        sched::linear_try_place(cluster, NodeRange{0, 4}, req.demand, &cursor);
    EXPECT_TRUE(placement.has_value());
    req.placement = std::move(*placement);
    req.preplaced = true;
    return req;
  }
};

TEST(DvmBackend, ReportsExternalScheduling) {
  DvmFixture fx;
  EXPECT_FALSE(fx.backend.self_scheduling());
  EXPECT_EQ(fx.backend.span(), (NodeRange{0, 4}));
  EXPECT_TRUE(fx.backend.accepts(platform::TaskModality::kExecutable));
  EXPECT_FALSE(fx.backend.accepts(platform::TaskModality::kFunction));
}

TEST(DvmBackend, DvmStartupIsOneTimeCost) {
  DvmFixture fx;
  EXPECT_NEAR(fx.backend.bootstrap_duration(), 4.6, 1.5);
}

TEST(DvmBackend, RejectsUnplacedRequests) {
  DvmFixture fx;
  platform::LaunchRequest req;
  req.id = "task.0";
  req.demand.cores = 1;
  EXPECT_THROW(fx.backend.submit(std::move(req)), util::Error);
}

TEST(DvmBackend, RunsPreplacedTasks) {
  DvmFixture fx;
  int starts = 0, done = 0;
  fx.backend.on_task_start([&](const std::string&) { ++starts; });
  fx.backend.on_task_complete([&](const platform::LaunchOutcome& outcome) {
    EXPECT_TRUE(outcome.success);
    ++done;
  });
  std::vector<platform::Placement> held;
  for (int i = 0; i < 50; ++i) {
    auto req = fx.preplaced(i, 5.0, 1);
    held.push_back(req.placement);
    fx.backend.submit(std::move(req));
  }
  fx.engine.run();
  EXPECT_EQ(starts, 50);
  EXPECT_EQ(done, 50);
  // The caller owns the placements (the DVM never frees resources).
  for (const auto& placement : held) {
    fx.cluster.release(placement);
  }
  EXPECT_EQ(fx.cluster.free_cores(NodeRange{0, 4}), 224);
}

TEST(DvmBackend, LaunchesFasterThanSchedulingBackends) {
  // The DVM's raison d'etre: minimal per-task overhead once up. 2,000
  // single-core nulls over 4 nodes launch at several hundred per second.
  DvmFixture fx;
  sim::RateSeries starts(1.0);
  fx.backend.on_task_start(
      [&](const std::string&) { starts.record(fx.engine.now()); });
  std::vector<platform::Placement> held;
  fx.backend.on_task_complete([&](const platform::LaunchOutcome&) {
    // Free immediately so placement never runs out.
    fx.cluster.release(held.back());
    held.pop_back();
  });
  int submitted = 0;
  // Submit in completion-driven batches to keep placements valid.
  std::function<void()> pump = [&] {
    while (submitted < 3000 && fx.cluster.free_cores({0, 4}) > 0) {
      auto req = fx.preplaced(submitted, 0.0, 1);
      held.push_back(req.placement);
      ++submitted;
      fx.backend.submit(std::move(req));
    }
    if (submitted < 3000) fx.engine.in(0.05, pump);
  };
  pump();
  fx.engine.run();
  EXPECT_EQ(starts.total(), 3000u);
  EXPECT_GT(starts.window_rate(), 400.0);
}

TEST(DvmBackend, CrashFailsActiveTasks) {
  DvmFixture fx;
  int ok = 0, failed = 0;
  fx.backend.on_task_complete([&](const platform::LaunchOutcome& outcome) {
    outcome.success ? ++ok : ++failed;
  });
  std::vector<platform::Placement> held;
  for (int i = 0; i < 20; ++i) {
    auto req = fx.preplaced(i, 500.0, 1);
    held.push_back(req.placement);
    fx.backend.submit(std::move(req));
  }
  fx.engine.run(fx.engine.now() + 60.0);
  fx.backend.crash();
  fx.engine.run();
  EXPECT_FALSE(fx.backend.healthy());
  EXPECT_EQ(failed, 20);
  EXPECT_EQ(fx.backend.inflight(), 0u);
  for (const auto& placement : held) {
    fx.cluster.release(placement);
  }
}

// The failure events of a crash follow uid order, not the order the tasks
// were submitted (or the slots they hold).
TEST(DvmBackend, CrashFailsActiveTasksInUidOrder) {
  DvmFixture fx;
  std::vector<std::string> failed;
  fx.backend.on_task_complete([&](const platform::LaunchOutcome& outcome) {
    EXPECT_FALSE(outcome.success);
    failed.push_back(outcome.id);
  });
  std::vector<platform::Placement> held;
  for (int i = 19; i >= 0; --i) {
    auto req = fx.preplaced(i, 500.0, 1);
    held.push_back(req.placement);
    fx.backend.submit(std::move(req));
  }
  fx.engine.run(fx.engine.now() + 60.0);
  fx.backend.crash();
  fx.engine.run();
  std::vector<std::string> sorted = failed;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(failed.size(), 20u);
  EXPECT_EQ(failed, sorted);
  for (const auto& placement : held) {
    fx.cluster.release(placement);
  }
}

// Tasks still at the head daemon when the DVM dies are not active yet:
// the crash leaves them alone and each fails as "dvm down" when its relay
// turn comes.
TEST(DvmBackend, RelayingTasksFailWhenTheirRelayFindsTheDvmDown) {
  DvmFixture fx;
  std::vector<std::string> errors;
  fx.backend.on_task_complete([&](const platform::LaunchOutcome& outcome) {
    EXPECT_FALSE(outcome.success);
    errors.push_back(outcome.error);
  });
  std::vector<platform::Placement> held;
  for (int i = 0; i < 10; ++i) {
    auto req = fx.preplaced(i, 5.0, 1);
    held.push_back(req.placement);
    fx.backend.submit(std::move(req));
  }
  fx.backend.crash("head lost");
  EXPECT_TRUE(errors.empty());
  EXPECT_EQ(fx.backend.inflight(), 10u);
  fx.engine.run();
  EXPECT_EQ(errors, std::vector<std::string>(10, "dvm down"));
  EXPECT_EQ(fx.backend.inflight(), 0u);
  EXPECT_TRUE(fx.backend.quiescent());
  for (const auto& placement : held) {
    fx.cluster.release(placement);
  }
}

// A submit to a dead DVM fails at once, without a relay.
TEST(DvmBackend, SubmitAfterCrashFailsAtOnce) {
  DvmFixture fx;
  fx.backend.crash();
  std::vector<platform::LaunchOutcome> outcomes;
  fx.backend.on_task_complete([&](const platform::LaunchOutcome& outcome) {
    outcomes.push_back(outcome);
  });
  auto req = fx.preplaced(0, 5.0, 1);
  const platform::Placement placement = req.placement;
  fx.backend.submit(std::move(req));
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].id, "task.0");
  EXPECT_FALSE(outcomes[0].success);
  EXPECT_EQ(outcomes[0].error, "dvm down");
  EXPECT_EQ(fx.backend.inflight(), 0u);
  fx.cluster.release(placement);
}

// The restore summary and quiescence read the live count of active tasks:
// non-zero while they run, zero once they complete, and zero after a
// crash even though the reaped tasks keep their slots.
TEST(DvmBackend, ActiveCountDrivesRestoreSummaryAndQuiescence) {
  DvmFixture fx;
  std::vector<platform::Placement> held;
  for (int i = 0; i < 10; ++i) {
    auto req = fx.preplaced(i, 100.0, 1);
    held.push_back(req.placement);
    fx.backend.submit(std::move(req));
  }
  fx.engine.run(fx.engine.now() + 30.0);
  EXPECT_FALSE(fx.backend.quiescent());
  EXPECT_NE(fx.backend.restore_summary().find("|completed=0|active=10"),
            std::string::npos)
      << fx.backend.restore_summary();
  fx.engine.run();
  EXPECT_TRUE(fx.backend.quiescent());
  EXPECT_NE(fx.backend.restore_summary().find("|completed=10|active=0"),
            std::string::npos)
      << fx.backend.restore_summary();

  for (const auto& placement : held) fx.cluster.release(placement);
  held.clear();
  for (int i = 10; i < 15; ++i) {
    auto req = fx.preplaced(i, 100.0, 1);
    held.push_back(req.placement);
    fx.backend.submit(std::move(req));
  }
  fx.engine.run(fx.engine.now() + 30.0);
  EXPECT_FALSE(fx.backend.quiescent());
  fx.backend.crash();
  EXPECT_TRUE(fx.backend.quiescent());
  EXPECT_NE(fx.backend.restore_summary().find("|completed=10|active=0"),
            std::string::npos)
      << fx.backend.restore_summary();
  fx.engine.run();
  EXPECT_TRUE(fx.backend.quiescent());
  for (const auto& placement : held) fx.cluster.release(placement);
}

// Completed tasks free their slots for the next wave; a reused slot
// carries only its new task: every outcome names its own id once, with
// the start time of its own wave.
TEST(DvmBackend, ReusedSlotsCarryOnlyTheirNewTask) {
  DvmFixture fx;
  std::vector<platform::LaunchOutcome> outcomes;
  fx.backend.on_task_complete([&](const platform::LaunchOutcome& outcome) {
    EXPECT_TRUE(outcome.success);
    outcomes.push_back(outcome);
  });
  std::vector<platform::Placement> held;
  for (int wave = 0; wave < 2; ++wave) {
    const sim::Time wave_start = fx.engine.now();
    for (int i = 0; i < 10; ++i) {
      auto req = fx.preplaced(wave * 10 + i, 5.0 + i, 1);
      held.push_back(req.placement);
      fx.backend.submit(std::move(req));
    }
    fx.engine.run();
    for (const auto& placement : held) fx.cluster.release(placement);
    held.clear();
    for (std::size_t k = outcomes.size() - 10; k < outcomes.size(); ++k) {
      EXPECT_GE(outcomes[k].started, wave_start) << outcomes[k].id;
    }
  }
  std::vector<std::string> ids;
  for (const auto& outcome : outcomes) ids.push_back(outcome.id);
  std::sort(ids.begin(), ids.end());
  std::vector<std::string> expected;
  for (int i = 0; i < 20; ++i) expected.push_back(util::cat("task.", i));
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(ids, expected);
  EXPECT_EQ(fx.backend.completed(), 20u);
  EXPECT_TRUE(fx.backend.quiescent());
}

// --------------------------------------------- agent-side scheduling path

struct PilotFixture {
  core::Session session{frontier_spec(), 4, 42};
  core::PilotManager pmgr{session};
  core::Pilot* pilot = nullptr;
  std::unique_ptr<core::TaskManager> tmgr;

  PilotFixture() {
    pilot = &pmgr.submit({.nodes = 4, .backends = {{"prrte"}}});
    bool ok = false;
    pilot->launch([&](bool success, const std::string&) { ok = success; });
    session.run(60.0);
    EXPECT_TRUE(ok);
    tmgr = std::make_unique<core::TaskManager>(session, pilot->agent());
  }
};

TEST(AgentScheduling, RunsFullLifecycleOnPrrte) {
  PilotFixture fx;
  int done = 0;
  fx.tmgr->on_complete([&](const core::Task& task) {
    EXPECT_EQ(task.state(), core::TaskState::kDone);
    EXPECT_EQ(task.backend(), "prrte");
    ++done;
  });
  for (int i = 0; i < 100; ++i) {
    core::TaskDescription desc;
    desc.demand.cores = 1;
    desc.duration = 10.0;
    fx.tmgr->submit(std::move(desc));
  }
  fx.session.run();
  EXPECT_EQ(done, 100);
  // Every placement the agent held was released.
  EXPECT_EQ(fx.session.cluster().free_cores({0, 4}), 224);
}

TEST(AgentScheduling, WaitlistsTasksBeyondCapacityFifo) {
  PilotFixture fx;
  std::vector<std::string> start_order;
  fx.pilot->agent().on_task_start(
      [&](const core::Task& task) { start_order.push_back(task.uid()); });
  fx.tmgr->on_complete([](const core::Task&) {});
  // 8 whole-node tasks on 4 nodes: two waves, agent-scheduled.
  for (int i = 0; i < 8; ++i) {
    core::TaskDescription desc;
    desc.demand.cores = 56;
    desc.demand.cores_per_node = 56;
    desc.duration = 100.0;
    fx.tmgr->submit(std::move(desc));
  }
  fx.session.run();
  ASSERT_EQ(start_order.size(), 8u);
  EXPECT_EQ(fx.tmgr->finished(), 8u);
  // Second wave started only after the first completed (~100 s later),
  // driven by the agent's completion-triggered waitlist drain.
  sim::Time t4 = 0, t3 = 0;
  ASSERT_TRUE(fx.tmgr->task(start_order[4])
                  .state_time(core::TaskState::kRunning, t4));
  ASSERT_TRUE(fx.tmgr->task(start_order[3])
                  .state_time(core::TaskState::kRunning, t3));
  EXPECT_GT(t4 - t3, 90.0);
}

// A task that waits on the agent's waitlist is named by its uid in the
// waitlist's wait span. The uid is formatted from the TaskId when the span
// is recorded (the sanitizer build checks that nothing dangles).
TEST(AgentScheduling, WaitlistSpanNamesTheWaitingTaskByUid) {
  core::Session session(frontier_spec(), 4, 42);
  obs::Tracer& tracer = session.enable_tracing();
  core::PilotManager pmgr(session);
  auto& pilot = pmgr.submit({.nodes = 4, .backends = {{"prrte"}}});
  bool ok = false;
  pilot.launch([&](bool success, const std::string&) { ok = success; });
  session.run(60.0);
  ASSERT_TRUE(ok);
  core::TaskManager tmgr(session, pilot.agent());
  tmgr.on_complete([](const core::Task&) {});
  // 5 whole-node tasks on 4 nodes: the fifth waits for a node.
  std::vector<std::string> uids;
  for (int i = 0; i < 5; ++i) {
    core::TaskDescription desc;
    desc.demand.cores = 56;
    desc.demand.cores_per_node = 56;
    desc.duration = 100.0;
    uids.push_back(tmgr.submit(std::move(desc)));
  }
  session.run();
  EXPECT_EQ(tmgr.finished(), 5u);
  std::vector<obs::Record> waits;
  tracer.for_each([&waits](const obs::Record& r) {
    if (r.type == obs::SpanType::kTaskQueueWait) waits.push_back(r);
  });
  ASSERT_EQ(waits.size(), 2u);
  EXPECT_EQ(waits[0].kind, obs::RecordKind::kBegin);
  EXPECT_EQ(waits[1].kind, obs::RecordKind::kEnd);
  for (const auto& record : waits) {
    EXPECT_EQ(record.component, "agent.prrte.waitlist");
    EXPECT_EQ(record.entity, uids[4]);
  }
  EXPECT_EQ(uids[4], "task.000004");
  EXPECT_GT(waits[1].time - waits[0].time, 90.0);
}

TEST(AgentScheduling, UtilizationIsHighWithAgentPlacement) {
  PilotFixture fx;
  fx.tmgr->on_complete([](const core::Task&) {});
  // 4 waves of single-core 180 s tasks: the agent keeps the span full.
  for (int i = 0; i < 224 * 4; ++i) {
    core::TaskDescription desc;
    desc.demand.cores = 1;
    desc.duration = 180.0;
    fx.tmgr->submit(std::move(desc));
  }
  fx.session.run();
  const auto& metrics = fx.pilot->agent().profiler().metrics();
  EXPECT_EQ(metrics.tasks_done(), 896u);
  EXPECT_GT(metrics.core_utilization(fx.pilot->total_cores()), 0.95);
}

TEST(AgentScheduling, DvmCrashFailsOverWaitlistToOtherBackend) {
  core::Session session(frontier_spec(), 8, 42);
  core::PilotManager pmgr(session);
  auto& pilot = pmgr.submit(
      {.nodes = 8,
       .backends = {{.type = "prrte", .nodes = 4},
                    {.type = "flux", .partitions = 1, .nodes = 4}}});
  bool ok = false;
  pilot.launch([&](bool success, const std::string&) { ok = success; });
  session.run(120.0);
  ASSERT_TRUE(ok);
  core::TaskManager tmgr(session, pilot.agent());
  int done = 0, failed = 0;
  tmgr.on_complete([&](const core::Task& task) {
    task.state() == core::TaskState::kDone ? ++done : ++failed;
  });
  // Whole-node tasks: prrte (preferred, registered first) runs 4, the
  // rest waitlist on it.
  for (int i = 0; i < 12; ++i) {
    core::TaskDescription desc;
    desc.demand.cores = 56;
    desc.demand.cores_per_node = 56;
    desc.duration = 300.0;
    desc.max_retries = 2;
    tmgr.submit(std::move(desc));
  }
  session.run(session.now() + 100.0);
  auto* dvm =
      dynamic_cast<DvmBackend*>(pilot.agent().backend("prrte"));
  ASSERT_NE(dvm, nullptr);
  dvm->crash("head daemon lost");
  session.run();
  EXPECT_EQ(done + failed, 12);
  EXPECT_EQ(failed, 0);  // running ones retried, waitlisted ones re-routed
  EXPECT_EQ(done, 12);
}

}  // namespace
}  // namespace flotilla::prrte
