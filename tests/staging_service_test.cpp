// Tests for data staging (Fig 1: StagerInput/StagerOutput), service tasks
// (§2: persistent learners/replay buffers), and the RADICAL-Analytics-style
// session report.
#include <gtest/gtest.h>

#include <sstream>

#include "analytics/session_report.hpp"
#include "core/flotilla.hpp"
#include "core/service.hpp"
#include "util/error.hpp"

namespace flotilla::core {
namespace {

struct Fixture {
  Session session{platform::frontier_spec(), 4, 42};
  PilotManager pmgr{session};
  Pilot* pilot = nullptr;
  std::unique_ptr<TaskManager> tmgr;

  Fixture() {
    pilot = &pmgr.submit({.nodes = 4, .backends = {{"flux", 1}}});
    bool ok = false;
    pilot->launch([&](bool success, const std::string&) { ok = success; });
    session.run(240.0);
    EXPECT_TRUE(ok);
    tmgr = std::make_unique<TaskManager>(session, pilot->agent());
  }
};

// ----------------------------------------------------------------- staging

TEST(Staging, InputStagingDelaysExecutionByTransferTime) {
  Fixture fx;
  fx.tmgr->on_complete([](const Task&) {});
  TaskDescription desc;
  desc.demand.cores = 1;
  desc.duration = 10.0;
  desc.input_mb = 16000.0;  // 10 s at 1600 MB/s per stream
  const auto uid = fx.tmgr->submit(std::move(desc));
  fx.session.run();
  const auto& task = fx.tmgr->task(uid);
  EXPECT_EQ(task.state(), TaskState::kDone);
  sim::Time t_stage = 0, t_sched = 0;
  ASSERT_TRUE(task.state_time(TaskState::kStagingInput, t_stage));
  ASSERT_TRUE(task.state_time(TaskState::kAgentScheduling, t_sched));
  EXPECT_NEAR(t_sched - t_stage, 10.0, 3.0);
}

TEST(Staging, OutputStagingDelaysFinalState) {
  Fixture fx;
  fx.tmgr->on_complete([](const Task&) {});
  TaskDescription desc;
  desc.demand.cores = 1;
  desc.duration = 5.0;
  desc.output_mb = 8000.0;  // 5 s at 1600 MB/s
  const auto uid = fx.tmgr->submit(std::move(desc));
  fx.session.run();
  const auto& task = fx.tmgr->task(uid);
  sim::Time t_out = 0, t_done = 0;
  ASSERT_TRUE(task.state_time(TaskState::kStagingOutput, t_out));
  ASSERT_TRUE(task.state_time(TaskState::kDone, t_done));
  EXPECT_NEAR(t_done - t_out, 5.0, 1.5);
}

TEST(Staging, TasksWithoutDataSkipStagingStates) {
  Fixture fx;
  fx.tmgr->on_complete([](const Task&) {});
  TaskDescription desc;
  desc.demand.cores = 1;
  const auto uid = fx.tmgr->submit(std::move(desc));
  fx.session.run();
  const auto& task = fx.tmgr->task(uid);
  sim::Time t = 0;
  EXPECT_FALSE(task.state_time(TaskState::kStagingInput, t));
  EXPECT_FALSE(task.state_time(TaskState::kStagingOutput, t));
  EXPECT_EQ(task.state(), TaskState::kDone);
}

TEST(Staging, StagerStreamsLimitConcurrentTransfers) {
  // 8 transfers of ~10 s each on 4 stager streams take ~2 batches.
  Fixture fx;
  fx.tmgr->on_complete([](const Task&) {});
  std::vector<std::string> uids;
  for (int i = 0; i < 8; ++i) {
    TaskDescription desc;
    desc.demand.cores = 1;
    desc.duration = 1.0;
    desc.input_mb = 16000.0;
    uids.push_back(fx.tmgr->submit(std::move(desc)));
  }
  fx.session.run();
  sim::Time last_sched = 0, first_stage = sim::kInfiniteTime;
  for (const auto& uid : uids) {
    sim::Time t0 = 0, t1 = 0;
    ASSERT_TRUE(fx.tmgr->task(uid).state_time(TaskState::kStagingInput, t0));
    ASSERT_TRUE(
        fx.tmgr->task(uid).state_time(TaskState::kAgentScheduling, t1));
    first_stage = std::min(first_stage, t0);
    last_sched = std::max(last_sched, t1);
  }
  // Two sequential waves of ~10 s, not eight and not one.
  EXPECT_GT(last_sched - first_stage, 15.0);
  EXPECT_LT(last_sched - first_stage, 35.0);
}

TEST(Staging, RetriedTasksDoNotRestageInput) {
  Fixture fx;
  int attempts_seen = 0;
  fx.tmgr->on_complete(
      [&](const Task& task) { attempts_seen = task.attempts(); });
  TaskDescription desc;
  desc.demand.cores = 1;
  desc.input_mb = 100.0;
  desc.fail_probability = 0.7;
  desc.max_retries = 10;
  fx.tmgr->submit(std::move(desc));
  fx.session.run();
  EXPECT_GE(attempts_seen, 1);
  // Completion implies the state machine accepted retry loops around the
  // staging states (no invalid-transition throw happened).
}

// ---------------------------------------------------------------- services

TEST(Services, ReadyAfterStartupDelay) {
  Fixture fx;
  fx.tmgr->on_complete([](const Task&) {});
  ServiceManager services(fx.session, *fx.tmgr);
  sim::Time ready_at = -1.0;
  ServiceDescription svc;
  svc.name = "replay-buffer";
  svc.demand.cores = 4;
  svc.lifetime = 500.0;
  svc.startup_delay = 7.0;
  services.start(std::move(svc), [&] { ready_at = fx.session.now(); });
  EXPECT_FALSE(services.ready("replay-buffer"));
  fx.session.run();
  EXPECT_GT(ready_at, 7.0);
  EXPECT_FALSE(services.running("replay-buffer"));  // lifetime elapsed
}

TEST(Services, WhenReadyGatesDependentWork) {
  Fixture fx;
  fx.tmgr->on_complete([](const Task&) {});
  ServiceManager services(fx.session, *fx.tmgr);
  ServiceDescription svc;
  svc.name = "learner";
  svc.demand.cores = 8;
  svc.lifetime = 300.0;
  svc.startup_delay = 5.0;
  services.start(std::move(svc));

  std::string worker_uid;
  services.when_ready("learner", [&] {
    EXPECT_TRUE(services.ready("learner"));
    TaskDescription worker;
    worker.demand.cores = 1;
    worker.duration = 10.0;
    worker_uid = fx.tmgr->submit(std::move(worker));
  });
  fx.session.run();
  ASSERT_FALSE(worker_uid.empty());
  EXPECT_EQ(fx.tmgr->task(worker_uid).state(), TaskState::kDone);
  // Worker started only after the service endpoint was up.
  sim::Time service_ready_earliest = 5.0;
  sim::Time worker_start = 0;
  ASSERT_TRUE(fx.tmgr->task(worker_uid)
                  .state_time(TaskState::kRunning, worker_start));
  EXPECT_GT(worker_start, service_ready_earliest);
}

TEST(Services, WhenReadyAfterReadinessFiresImmediately) {
  Fixture fx;
  fx.tmgr->on_complete([](const Task&) {});
  ServiceManager services(fx.session, *fx.tmgr);
  ServiceDescription svc;
  svc.name = "db";
  svc.demand.cores = 1;
  svc.lifetime = 1000.0;
  services.start(std::move(svc));
  fx.session.run(100.0);
  ASSERT_TRUE(services.ready("db"));
  bool fired = false;
  services.when_ready("db", [&] { fired = true; });
  fx.session.run(101.0);
  EXPECT_TRUE(fired);
}

TEST(Services, DuplicateAndUnknownNamesThrow) {
  Fixture fx;
  fx.tmgr->on_complete([](const Task&) {});
  ServiceManager services(fx.session, *fx.tmgr);
  ServiceDescription svc;
  svc.name = "x";
  svc.demand.cores = 1;
  services.start(svc);
  EXPECT_THROW(services.start(svc), util::Error);
  EXPECT_THROW(services.when_ready("nope", [] {}), util::Error);
  EXPECT_FALSE(services.ready("nope"));
}

// ----------------------------------------------------------- session report

TEST(SessionReport, BreaksDownTaskLifecycles) {
  Fixture fx;
  fx.tmgr->on_complete([](const Task&) {});
  for (int i = 0; i < 50; ++i) {
    TaskDescription desc;
    desc.demand.cores = 1;
    desc.duration = 60.0;
    desc.input_mb = 800.0;   // 0.5 s stage-in
    desc.output_mb = 160.0;  // 0.1 s stage-out
    fx.tmgr->submit(std::move(desc));
  }
  fx.session.run();

  analytics::SessionReport report;
  fx.tmgr->for_each_task(
      [&](const Task& task) { report.add(task); });
  EXPECT_EQ(report.tasks(), 50u);
  EXPECT_EQ(report.failed(), 0u);
  EXPECT_NEAR(report.mean_execution(), 60.0, 2.0);
  EXPECT_GT(report.mean_overhead(), 0.1);  // staging dominates overhead
  EXPECT_LT(report.overhead_fraction(), 0.3);

  bool saw_staging = false, saw_exec = false;
  for (const auto& phase : report.phases()) {
    if (phase.name == "staging_input") {
      saw_staging = true;
      EXPECT_EQ(phase.dwell.count(), 50u);
      // Dwell includes queueing for a stager stream: 50 transfers of
      // ~0.5 s over 4 streams wait ~3 s on average.
      EXPECT_GT(phase.dwell.mean(), 0.5);
      EXPECT_LT(phase.dwell.mean(), 0.5 * 50.0 / 4.0);
    }
    if (phase.name == "execution") saw_exec = true;
  }
  EXPECT_TRUE(saw_staging);
  EXPECT_TRUE(saw_exec);

  std::ostringstream text, csv;
  report.print(text);
  report.write_csv(csv);
  EXPECT_NE(text.str().find("execution"), std::string::npos);
  EXPECT_NE(csv.str().find("staging_input"), std::string::npos);
}

TEST(SessionReport, CountsFailuresAndSkipsUnfinishedTasks) {
  analytics::SessionReport report;
  TaskLabels labels;
  const Task::Context context(labels);
  Task unfinished(0, {}, context);
  unfinished.advance(TaskState::kTmgrScheduling, 1.0);
  report.add(unfinished);
  EXPECT_EQ(report.tasks(), 0u);

  Task failed(1, {}, context);
  failed.advance(TaskState::kTmgrScheduling, 1.0);
  failed.advance(TaskState::kFailed, 2.0);
  report.add(failed);
  EXPECT_EQ(report.tasks(), 1u);
  EXPECT_EQ(report.failed(), 1u);
}

}  // namespace
}  // namespace flotilla::core
