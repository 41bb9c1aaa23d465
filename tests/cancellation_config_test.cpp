// Tests for cooperative task cancellation and the config-driven
// platform/calibration definitions.
#include <gtest/gtest.h>

#include <string>

#include "core/flotilla.hpp"
#include "platform/spec_config.hpp"
#include "util/error.hpp"

namespace flotilla {
namespace {

// ------------------------------------------------------------ cancellation

struct CancelFixture {
  core::Session session{platform::frontier_spec(), 4, 42};
  core::PilotManager pmgr{session};
  core::Pilot* pilot = nullptr;
  std::unique_ptr<core::TaskManager> tmgr;

  explicit CancelFixture(const std::string& backend = "flux") {
    core::PilotDescription desc;
    desc.nodes = 4;
    if (backend == "flux") {
      desc.backends = {{.type = "flux", .partitions = 1}};
    } else {
      desc.backends = {{backend}};
    }
    pilot = &pmgr.submit(std::move(desc));
    pilot->launch([](bool ok, const std::string&) { EXPECT_TRUE(ok); });
    session.run(240.0);
    tmgr = std::make_unique<core::TaskManager>(session, pilot->agent());
  }

  std::string submit_one(double duration, std::int64_t cores = 1) {
    core::TaskDescription desc;
    desc.demand.cores = cores;
    desc.duration = duration;
    return tmgr->submit(std::move(desc));
  }
};

TEST(Cancellation, PendingTaskCancelsBeforeLaunch) {
  CancelFixture fx;
  const auto uid = fx.submit_one(100.0);
  EXPECT_TRUE(fx.tmgr->cancel(uid));  // still in TMGR intake
  fx.session.run();
  const auto& task = fx.tmgr->task(uid);
  EXPECT_EQ(task.state(), core::TaskState::kCanceled);
  sim::Time t = 0;
  EXPECT_FALSE(task.state_time(core::TaskState::kRunning, t));
  // Resources untouched.
  EXPECT_EQ(fx.session.cluster().free_cores({0, 4}), 224);
}

TEST(Cancellation, RunningTaskCancelsAtPayloadEnd) {
  CancelFixture fx;
  const auto uid = fx.submit_one(50.0);
  fx.session.run(fx.session.now() + 30.0);  // task is running
  EXPECT_EQ(fx.tmgr->task(uid).state(), core::TaskState::kRunning);
  EXPECT_TRUE(fx.tmgr->cancel(uid));
  fx.session.run();
  EXPECT_EQ(fx.tmgr->task(uid).state(), core::TaskState::kCanceled);
  EXPECT_EQ(fx.session.cluster().free_cores({0, 4}), 224);
}

TEST(Cancellation, WaitlistedPrrteTaskCancelsImmediately) {
  CancelFixture fx("prrte");
  // Fill the machine, then waitlist one more whole-node task.
  for (int i = 0; i < 4; ++i) {
    core::TaskDescription big;
    big.demand.cores = 56;
    big.demand.cores_per_node = 56;
    big.duration = 500.0;
    fx.tmgr->submit(std::move(big));
  }
  core::TaskDescription extra;
  extra.demand.cores = 56;
  extra.demand.cores_per_node = 56;
  extra.duration = 500.0;
  const auto uid = fx.tmgr->submit(std::move(extra));
  fx.session.run(fx.session.now() + 60.0);
  EXPECT_EQ(fx.tmgr->task(uid).state(), core::TaskState::kExecutorPending);
  const sim::Time before = fx.session.now();
  EXPECT_TRUE(fx.tmgr->cancel(uid));
  fx.session.run(before + 1.0);
  EXPECT_EQ(fx.tmgr->task(uid).state(), core::TaskState::kCanceled);
}

TEST(Cancellation, UnknownAndFinalTasksReturnFalse) {
  CancelFixture fx;
  EXPECT_FALSE(fx.tmgr->cancel("task.999999"));
  const auto uid = fx.submit_one(1.0);
  fx.session.run();
  EXPECT_EQ(fx.tmgr->task(uid).state(), core::TaskState::kDone);
  EXPECT_FALSE(fx.tmgr->cancel(uid));
}

TEST(Cancellation, CanceledTasksDoNotRetry) {
  CancelFixture fx;
  core::TaskDescription desc;
  desc.demand.cores = 1;
  desc.duration = 30.0;
  desc.fail_probability = 1.0;  // would retry forever without cancel
  desc.max_retries = 100;
  const auto uid = fx.tmgr->submit(std::move(desc));
  fx.session.run(fx.session.now() + 10.0);
  fx.tmgr->cancel(uid);
  fx.session.run();
  const auto& task = fx.tmgr->task(uid);
  EXPECT_EQ(task.state(), core::TaskState::kCanceled);
  EXPECT_LE(task.attempts(), 2);
}

// ----------------------------------------------------------- spec config

TEST(SpecConfig, SummitProfileMatchesPriorWorkPlatform) {
  const auto spec = platform::summit_spec();
  EXPECT_EQ(spec.cores_per_node, 42);
  EXPECT_EQ(spec.gpus_per_node, 6);
  EXPECT_GT(spec.srun_concurrency_ceiling, 100000);  // LSF: no ceiling
}

TEST(SpecConfig, SpecByNameAndUnknownName) {
  EXPECT_EQ(platform::spec_by_name("frontier").cores_per_node, 56);
  EXPECT_EQ(platform::spec_by_name("summit").name, "summit");
  EXPECT_THROW(platform::spec_by_name("perlmutter"), util::Error);
}

TEST(SpecConfig, BuildsSpecFromConfigWithOverrides) {
  const auto config = util::Config::from_pairs(
      {"platform.name=frontier", "platform.cores_per_node=32",
       "platform.srun_ceiling=0"});
  const auto spec = platform::spec_from_config(config);
  EXPECT_EQ(spec.name, "frontier");
  EXPECT_EQ(spec.cores_per_node, 32);       // overridden
  EXPECT_EQ(spec.gpus_per_node, 8);         // inherited
  EXPECT_GT(spec.srun_concurrency_ceiling, 100000);  // 0 => unlimited
}

TEST(SpecConfig, RejectsUnknownPlatformKeys) {
  const auto config =
      util::Config::from_pairs({"platform.coresper_node=32"});
  EXPECT_THROW(platform::spec_from_config(config), util::Error);
}

TEST(SpecConfig, CalibrationOverridesApply) {
  const auto config = util::Config::from_pairs(
      {"flux.exec_spawn=0.050", "slurm.ctl_step_base=0.010",
       "core.tmgr_task_cost=0.001", "flux.jitter_cv=0"});
  const auto cal = platform::calibration_from_config(config);
  EXPECT_DOUBLE_EQ(cal.flux.exec_spawn, 0.050);
  EXPECT_DOUBLE_EQ(cal.slurm.ctl_step_base, 0.010);
  EXPECT_DOUBLE_EQ(cal.core.tmgr_task_cost, 0.001);
  EXPECT_DOUBLE_EQ(cal.flux.jitter_cv, 0.0);  // zero stays valid
  // Untouched keys keep their Frontier defaults.
  EXPECT_DOUBLE_EQ(cal.dragon.dispatch_func, 1.00e-3);
}

TEST(SpecConfig, RejectsUnknownCalibrationKeys) {
  const auto config = util::Config::from_pairs({"flux.exec_spwan=0.05"});
  EXPECT_THROW(platform::calibration_from_config(config), util::Error);
}

// Every prefix refuses inf, nan and negative values, naming the key and the
// text as given.
TEST(SpecConfig, RejectsNonFiniteAndNegativeCalibrationValues) {
  const struct {
    const char* pair;
    const char* message;
  } cases[] = {
      {"core.collect_cost=inf",
       "calibration key 'core.collect_cost' must be finite and "
       "non-negative, got 'inf'"},
      {"core.collect_cost=nan", "'core.collect_cost'"},
      {"flux.exec_spawn=-0.01",
       "calibration key 'flux.exec_spawn' must be finite and non-negative, "
       "got '-0.01'"},
      {"slurm.step_retry_max=1e999", "'slurm.step_retry_max'"},
      {"dragon.jitter_cv=-inf", "'dragon.jitter_cv'"},
      {"prrte.head_relay_cost=NAN", "'prrte.head_relay_cost'"},
      {"core.fs_stream_bandwidth_mbps=0",
       "calibration key 'core.fs_stream_bandwidth_mbps' must be positive"},
  };
  for (const auto& c : cases) {
    const auto config = util::Config::from_pairs({c.pair});
    try {
      (void)platform::calibration_from_config(config);
      ADD_FAILURE() << c.pair << " was accepted";
    } catch (const util::Error& e) {
      EXPECT_NE(std::string(e.what()).find(c.message), std::string::npos)
          << c.pair << ": " << e.what();
    }
  }
}

// Config numbers parse whole, in one text: each value below used to run
// (an empty cost as 0, a hex float as 0.125, an empty smt as 0, and a core
// count that wrapped to 1 on the long -> int cast). Each is now an error
// naming its key.
std::string config_error(const char* pair) {
  const auto config = util::Config::from_pairs({pair});
  try {
    (void)platform::spec_from_config(config);
    (void)platform::calibration_from_config(config);
  } catch (const util::Error& e) {
    return e.what();
  }
  return "accepted";
}

TEST(SpecConfig, RejectsAnEmptyCalibrationValue) {
  EXPECT_EQ(config_error("flux.sched_cost="),
            "config key 'flux.sched_cost' is not a number: ''");
}

TEST(SpecConfig, RejectsAHexFloatCalibrationValue) {
  EXPECT_EQ(config_error("flux.sched_cost=0x1p-3"),
            "config key 'flux.sched_cost' is not a number: '0x1p-3'");
}

TEST(SpecConfig, RejectsAnEmptyPlatformInteger) {
  EXPECT_EQ(config_error("platform.smt="),
            "config key 'platform.smt' is not an integer: ''");
}

TEST(SpecConfig, RejectsACoreCountThatWouldWrapOnNarrowing) {
  EXPECT_EQ(config_error("platform.cores_per_node=4294967297"),
            "config key 'platform.cores_per_node' out of range [1, 64]: "
            "4294967297");
}

TEST(SpecConfig, SummitSessionRunsEndToEnd) {
  // A Summit-profile pilot executes a workload: 42-core nodes, no srun
  // ceiling (the Fig 4 plateau disappears).
  core::Session session(platform::summit_spec(), 4, 42);
  core::PilotManager pmgr(session);
  auto& pilot = pmgr.submit({.nodes = 4, .backends = {{"srun"}}});
  pilot.launch([](bool ok, const std::string&) { EXPECT_TRUE(ok); });
  session.run(10.0);
  core::TaskManager tmgr(session, pilot.agent());
  tmgr.on_complete([](const core::Task&) {});
  for (int i = 0; i < 336; ++i) {  // 2 waves of 168 cores
    core::TaskDescription desc;
    desc.demand.cores = 1;
    desc.duration = 60.0;
    tmgr.submit(std::move(desc));
  }
  session.run();
  const auto& metrics = pilot.agent().profiler().metrics();
  EXPECT_EQ(metrics.tasks_done(), 336u);
  EXPECT_EQ(pilot.total_cores(), 168);
  // No 112-ceiling: concurrency reaches the full 168 cores.
  EXPECT_NEAR(metrics.peak_concurrency(), 168.0, 1.0);
}

}  // namespace
}  // namespace flotilla
