#include <gtest/gtest.h>

#include <set>

#include "core/flotilla.hpp"
#include "util/strfmt.hpp"
#include "workloads/impeccable.hpp"
#include "workloads/synthetic.hpp"

namespace flotilla::workloads {
namespace {

TEST(Synthetic, UniformTasksHaveRequestedShape) {
  const auto tasks = uniform_tasks(10, 180.0, 2,
                                   platform::TaskModality::kFunction, "dragon");
  ASSERT_EQ(tasks.size(), 10u);
  for (const auto& t : tasks) {
    EXPECT_EQ(t.demand.cores, 2);
    EXPECT_DOUBLE_EQ(t.duration, 180.0);
    EXPECT_EQ(t.modality, platform::TaskModality::kFunction);
    EXPECT_EQ(t.backend_hint, "dragon");
  }
}

TEST(Synthetic, PaperTaskCountFormula) {
  // Table 1: n_nodes * cpn * 4; the srun experiment runs 896 tasks on 4
  // nodes (Fig 4).
  EXPECT_EQ(paper_task_count(4), 896);
  EXPECT_EQ(paper_task_count(1), 224);
  EXPECT_EQ(paper_task_count(1024), 229376);
}

TEST(Synthetic, MixedTasksAlternateModalities) {
  const auto tasks = mixed_tasks(6);
  int execs = 0, funcs = 0;
  for (const auto& t : tasks) {
    t.modality == platform::TaskModality::kExecutable ? ++execs : ++funcs;
  }
  EXPECT_EQ(execs, 3);
  EXPECT_EQ(funcs, 3);
}

TEST(ImpeccablePlan, MatchesTable1TaskCounts) {
  const auto plan256 = impeccable_plan(256);
  EXPECT_NEAR(plan256.total_tasks(), 550, 60);  // "~550"
  const auto plan1024 = impeccable_plan(1024);
  EXPECT_NEAR(plan1024.total_tasks(), 1800, 150);  // "~1800"
  // Adaptive: wider allocation, fatter iterations, fewer of them.
  EXPECT_GT(plan1024.tasks_per_iteration(),
            2 * plan256.tasks_per_iteration());
  EXPECT_LT(plan1024.iterations, plan256.iterations);
}

TEST(ImpeccablePlan, ResourceEnvelopesMatchPaper) {
  const auto plan = impeccable_plan(256);
  std::int64_t max_cores = 0, max_gpus_task = 0, total_gpus = 0;
  bool has_mpi = false, has_single_core_scale = false;
  for (const auto& stage : plan.per_iteration) {
    max_cores = std::max(max_cores, stage.cores);
    max_gpus_task = std::max(max_gpus_task, stage.gpus);
    total_gpus += stage.gpus * stage.tasks;
    if (stage.cores_per_node > 0) has_mpi = true;
    if (stage.cores <= 8) has_single_core_scale = true;
  }
  EXPECT_EQ(max_cores, 7168);  // Table 1: 1-7,168 cores per task
  EXPECT_TRUE(has_mpi);
  EXPECT_TRUE(has_single_core_scale);
  EXPECT_GE(total_gpus, 1024);  // Table 1: up to 1,024 GPUs in flight
  EXPECT_DOUBLE_EQ(plan.task_duration, 180.0);  // dummy sleep tasks
}

TEST(ImpeccableBuild, CreatesStagesWithFeedbackLoop) {
  core::Session session(platform::frontier_spec(), 64, 42);
  core::PilotManager pmgr(session);
  auto& pilot = pmgr.submit({.nodes = 64, .backends = {{"flux", 1}}});
  pilot.launch([](bool ok, const std::string&) { EXPECT_TRUE(ok); });
  session.run(240.0);
  core::TaskManager tmgr(session, pilot.agent());
  core::Workflow workflow(tmgr);

  auto plan = impeccable_plan(256);
  plan.iterations = 2;  // keep the test small
  build_impeccable(workflow, plan);
  EXPECT_EQ(workflow.stages_total(), 14u);  // 7 families x 2 iterations
  EXPECT_FALSE(workflow.started());
}

TEST(ImpeccableRun, SmallCampaignRunsToCompletionWithOrdering) {
  core::Session session(platform::frontier_spec(), 256, 42);
  core::PilotManager pmgr(session);
  auto& pilot = pmgr.submit({.nodes = 256, .backends = {{"flux", 1}}});
  pilot.launch([](bool ok, const std::string&) { EXPECT_TRUE(ok); });
  session.run(240.0);
  core::TaskManager tmgr(session, pilot.agent());
  core::Workflow workflow(tmgr);

  auto plan = impeccable_plan(256);
  plan.iterations = 3;
  plan.task_duration = 30.0;  // shrink the sleep for test speed
  build_impeccable(workflow, plan);

  std::vector<std::string> completed;
  workflow.on_stage_complete(
      [&](const std::string& s) { completed.push_back(s); });
  workflow.start();
  session.run();

  EXPECT_EQ(workflow.stages_completed(), workflow.stages_total());
  EXPECT_EQ(workflow.tasks_failed(), 0u);

  auto position = [&](const std::string& name) {
    for (std::size_t i = 0; i < completed.size(); ++i) {
      if (completed[i] == name) return static_cast<long>(i);
    }
    return -1L;
  };
  // Feedback ordering: train.N after dock.N, infer.N after train.N,
  // dock.N+1 after infer.N.
  for (int i = 0; i < 3; ++i) {
    EXPECT_LT(position(util::cat("dock.", i)),
              position(util::cat("train.", i)));
    EXPECT_LT(position(util::cat("train.", i)),
              position(util::cat("infer.", i)));
    if (i > 0) {
      EXPECT_LT(position(util::cat("infer.", i - 1)),
                position(util::cat("dock.", i)));
    }
  }
  // Utilization is meaningful: heterogeneous tasks kept cores busy.
  const auto& metrics = pilot.agent().profiler().metrics();
  EXPECT_GT(metrics.core_utilization(pilot.total_cores()), 0.2);
  EXPECT_GT(metrics.gpu_utilization(pilot.total_gpus()), 0.05);
}

TEST(ImpeccablePlan, RealismKnobsPropagateToTasks) {
  core::Session session(platform::frontier_spec(), 64, 42);
  core::PilotManager pmgr(session);
  auto& pilot = pmgr.submit({.nodes = 64, .backends = {{"flux", 1}}});
  pilot.launch([](bool ok, const std::string&) { EXPECT_TRUE(ok); });
  session.run(240.0);
  core::TaskManager tmgr(session, pilot.agent());
  core::Workflow workflow(tmgr);

  auto plan = impeccable_plan(256);
  plan.iterations = 1;
  plan.duration_cv = 0.3;
  plan.stage_in_mb = 64.0;
  plan.stage_out_mb = 32.0;
  plan.fail_probability = 0.05;
  build_impeccable(workflow, plan, 7);

  std::vector<double> durations;
  workflow.on_task([&](const core::Task& task) {
    durations.push_back(task.duration());
    EXPECT_DOUBLE_EQ(task.input_mb(), 64.0);
    EXPECT_DOUBLE_EQ(task.output_mb(), 32.0);
    EXPECT_DOUBLE_EQ(task.fail_probability(), 0.05);
  });
  workflow.start();
  session.run();

  // Durations are jittered around 180 s, not constant.
  ASSERT_GT(durations.size(), 10u);
  double lo = 1e9, hi = 0, sum = 0;
  for (const double d : durations) {
    lo = std::min(lo, d);
    hi = std::max(hi, d);
    sum += d;
  }
  EXPECT_LT(lo, hi - 10.0);  // genuine spread
  EXPECT_NEAR(sum / static_cast<double>(durations.size()), 180.0, 40.0);
}

TEST(ImpeccablePlan, DeterministicForSameSeed) {
  auto build_durations = [](std::uint64_t seed) {
    core::Session session(platform::frontier_spec(), 64, 42);
    core::PilotManager pmgr(session);
    auto& pilot = pmgr.submit({.nodes = 64, .backends = {{"flux", 1}}});
    pilot.launch([](bool, const std::string&) {});
    session.run(240.0);
    core::TaskManager tmgr(session, pilot.agent());
    core::Workflow workflow(tmgr);
    auto plan = impeccable_plan(256);
    plan.iterations = 1;
    plan.duration_cv = 0.4;
    plan.task_duration = 10.0;
    build_impeccable(workflow, plan, seed);
    std::vector<double> durations;
    workflow.on_task([&](const core::Task& task) {
      durations.push_back(task.duration());
    });
    workflow.start();
    session.run();
    return durations;
  };
  EXPECT_EQ(build_durations(5), build_durations(5));
  EXPECT_NE(build_durations(5), build_durations(6));
}

TEST(ImpeccablePlan, CoscheduledEsmacsFormsGangsThatStartTogether) {
  core::Session session(platform::frontier_spec(), 256, 42);
  core::PilotManager pmgr(session);
  auto& pilot = pmgr.submit({.nodes = 256, .backends = {{"flux", 1}}});
  pilot.launch([](bool ok, const std::string&) { EXPECT_TRUE(ok); });
  session.run(240.0);
  core::TaskManager tmgr(session, pilot.agent());
  core::Workflow workflow(tmgr);
  auto plan = impeccable_plan(256);
  plan.iterations = 1;
  plan.task_duration = 30.0;
  plan.coscheduled_esmacs = true;
  build_impeccable(workflow, plan);

  std::vector<sim::Time> esmacs_starts;
  pilot.agent().on_task_start([&](const core::Task& task) {
    if (task.stage().rfind("esmacs", 0) == 0) {
      esmacs_starts.push_back(session.now());
    }
  });
  workflow.on_task([](const core::Task& task) {
    EXPECT_EQ(task.state(), core::TaskState::kDone);
  });
  workflow.start();
  session.run();
  ASSERT_EQ(esmacs_starts.size(), 3u);
  for (const auto t : esmacs_starts) {
    EXPECT_DOUBLE_EQ(t, esmacs_starts.front());  // gang-synchronized
  }
}

}  // namespace
}  // namespace flotilla::workloads
