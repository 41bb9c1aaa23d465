#include <gtest/gtest.h>

#include <string>
#include <vector>

#include <memory>

#include "core/flotilla.hpp"
#include "util/strfmt.hpp"
#include "util/error.hpp"

namespace flotilla::core {
namespace {

struct WorkflowFixture {
  Session session{platform::frontier_spec(), 4, 42};
  PilotManager pmgr{session};
  Pilot* pilot = nullptr;
  std::unique_ptr<TaskManager> tmgr_holder;
  TaskManager& tmgr;
  Workflow workflow;

  static TaskManager& make_tmgr(WorkflowFixture& fx) {
    fx.pilot = &fx.pmgr.submit({.nodes = 4, .backends = {{"flux", 1}}});
    bool ok = false;
    fx.pilot->launch([&ok](bool success, const std::string&) { ok = success; });
    fx.session.run(240.0);
    EXPECT_TRUE(ok);
    fx.tmgr_holder = std::make_unique<TaskManager>(fx.session, fx.pilot->agent());
    return *fx.tmgr_holder;
  }

  WorkflowFixture() : tmgr(make_tmgr(*this)), workflow(tmgr) {}
};

std::vector<TaskDescription> batch_of(int n, TaskDescription d) {
  return std::vector<TaskDescription>(static_cast<std::size_t>(n), std::move(d));
}

TaskDescription quick_task(double duration = 1.0) {
  TaskDescription desc;
  desc.demand.cores = 1;
  desc.duration = duration;
  return desc;
}

TEST(Workflow, StagesRunInDependencyOrder) {
  WorkflowFixture fx;
  std::vector<std::string> completed;
  fx.workflow.on_stage_complete(
      [&](const std::string& stage) { completed.push_back(stage); });
  bool drained = false;
  fx.workflow.on_drained([&] { drained = true; });

  fx.workflow.add_stage("dock", batch_of(3, quick_task(10.0)));
  fx.workflow.add_stage("train", batch_of(2, quick_task(5.0)), {"dock"});
  fx.workflow.add_stage("infer", batch_of(4, quick_task(2.0)), {"train"});
  fx.workflow.start();
  fx.session.run();

  EXPECT_EQ(completed,
            (std::vector<std::string>{"dock", "train", "infer"}));
  EXPECT_TRUE(drained);
  EXPECT_EQ(fx.workflow.stages_completed(), 3u);
}

TEST(Workflow, IndependentStagesOverlap) {
  WorkflowFixture fx;
  sim::Time a_first_done = 0, b_first_done = 0;
  fx.workflow.on_task([&](const Task& task) {
    if (task.stage() == "a" && a_first_done == 0) {
      a_first_done = fx.session.now();
    }
    if (task.stage() == "b" && b_first_done == 0) {
      b_first_done = fx.session.now();
    }
  });
  fx.workflow.add_stage("a", batch_of(4, quick_task(50.0)));
  fx.workflow.add_stage("b", batch_of(4, quick_task(50.0)));
  fx.workflow.start();
  fx.session.run();
  // Both stages' tasks ran concurrently: first completions within ~1 s.
  EXPECT_LT(std::abs(a_first_done - b_first_done), 5.0);
}

TEST(Workflow, DiamondDependencies) {
  WorkflowFixture fx;
  std::vector<std::string> completed;
  fx.workflow.on_stage_complete(
      [&](const std::string& stage) { completed.push_back(stage); });
  fx.workflow.add_stage("root", batch_of(1, quick_task()));
  fx.workflow.add_stage("left", batch_of(1, quick_task()), {"root"});
  fx.workflow.add_stage("right", batch_of(1, quick_task()), {"root"});
  fx.workflow.add_stage("join", batch_of(1, quick_task()), {"left", "right"});
  fx.workflow.start();
  fx.session.run();
  ASSERT_EQ(completed.size(), 4u);
  EXPECT_EQ(completed.front(), "root");
  EXPECT_EQ(completed.back(), "join");
}

TEST(Workflow, AdaptiveStageAddedOnCompletion) {
  // The §4.2 pattern: when a stage completes, runtime feedback decides to
  // add more work.
  WorkflowFixture fx;
  int iterations = 0;
  fx.workflow.on_stage_complete([&](const std::string& stage) {
    if (stage.rfind("iter.", 0) == 0 && ++iterations < 3) {
      fx.workflow.add_stage(util::cat("iter.", iterations),
                            batch_of(2, quick_task(5.0)), {stage});
    }
  });
  fx.workflow.add_stage("iter.0", batch_of(2, quick_task(5.0)));
  fx.workflow.start();
  fx.session.run();
  EXPECT_EQ(iterations, 3);
  EXPECT_EQ(fx.workflow.stages_completed(), 3u);
  EXPECT_TRUE(fx.workflow.stage_complete("iter.2"));
}

TEST(Workflow, FailedTasksStillCompleteStages) {
  WorkflowFixture fx;
  bool downstream_ran = false;
  fx.workflow.on_stage_complete([&](const std::string& stage) {
    if (stage == "after") downstream_ran = true;
  });
  auto failing = quick_task();
  failing.fail_probability = 1.0;
  fx.workflow.add_stage("flaky", batch_of(2, failing));
  fx.workflow.add_stage("after", batch_of(1, quick_task()), {"flaky"});
  fx.workflow.start();
  fx.session.run();
  EXPECT_TRUE(downstream_ran);
  EXPECT_EQ(fx.workflow.tasks_failed(), 2u);
}

TEST(Workflow, RejectsDuplicateAndUnknownDeps) {
  WorkflowFixture fx;
  fx.workflow.add_stage("a", batch_of(1, quick_task()));
  EXPECT_THROW(fx.workflow.add_stage("a", batch_of(1, quick_task())), util::Error);
  EXPECT_THROW(
      fx.workflow.add_stage("b", batch_of(1, quick_task()), {"missing"}),
      util::Error);
  EXPECT_THROW(fx.workflow.add_stage("empty", std::vector<TaskDescription>{}), util::Error);
}

TEST(Workflow, StageTagsPropagateToTasks) {
  WorkflowFixture fx;
  std::vector<std::string> stages_seen;
  fx.workflow.on_task(
      [&](const Task& task) { stages_seen.push_back(task.stage()); });
  fx.workflow.add_stage("tagged", batch_of(3, quick_task()));
  fx.workflow.start();
  fx.session.run();
  ASSERT_EQ(stages_seen.size(), 3u);
  for (const auto& s : stages_seen) EXPECT_EQ(s, "tagged");
}

// The stage of each task as it enters the TMGR, one entry per run of a
// stage: the order the workflow submitted its stages in.
struct SubmitOrder {
  std::vector<std::string> stages;

  explicit SubmitOrder(TaskManager& tmgr) {
    tmgr.on_transition([this](const Task& task, TaskState, TaskState to) {
      if (to != TaskState::kTmgrScheduling) return;
      if (stages.empty() || stages.back() != task.stage()) {
        stages.push_back(task.stage());
      }
    });
  }
};

// A completion that unblocks three stages submits them in name order, not
// in the order they were added; a stage that also waits on another
// incomplete stage stays back until that one completes.
TEST(Workflow, UnblockedStagesAreSubmittedInNameOrder) {
  WorkflowFixture fx;
  SubmitOrder order(fx.tmgr);
  fx.workflow.add_stage("root", batch_of(2, quick_task(1.0)));
  fx.workflow.add_stage("slow", batch_of(1, quick_task(100.0)));
  fx.workflow.add_stage("zeta", batch_of(2, quick_task()), {"root"});
  fx.workflow.add_stage("beta", batch_of(1, quick_task()), {"root", "slow"});
  fx.workflow.add_stage("alpha", batch_of(2, quick_task()), {"root"});
  fx.workflow.add_stage("mid", batch_of(1, quick_task()), {"root"});
  fx.workflow.start();
  fx.session.run();
  EXPECT_EQ(order.stages, (std::vector<std::string>{"root", "slow", "alpha",
                                                    "mid", "zeta", "beta"}));
  EXPECT_EQ(fx.workflow.stages_completed(), 6u);
}

// A stage added from on_stage_complete whose deps are all complete is
// submitted inside add_stage, before the completed stage's own dependents.
TEST(Workflow, StageAddedOnCompletionWithItsDepsDoneIsSubmittedAtOnce) {
  WorkflowFixture fx;
  SubmitOrder order(fx.tmgr);
  std::size_t before = 0;
  std::size_t after = 0;
  fx.workflow.on_stage_complete([&](const std::string& stage) {
    if (stage != "root") return;
    before = fx.tmgr.submitted();
    fx.workflow.add_stage("extra", batch_of(3, quick_task()), {"root"});
    after = fx.tmgr.submitted();
  });
  fx.workflow.add_stage("root", batch_of(1, quick_task()));
  fx.workflow.add_stage("alpha", batch_of(1, quick_task()), {"root"});
  fx.workflow.start();
  fx.session.run();
  EXPECT_EQ(after, before + 3);
  EXPECT_EQ(order.stages,
            (std::vector<std::string>{"root", "extra", "alpha"}));
  EXPECT_TRUE(fx.workflow.stage_complete("extra"));
  EXPECT_EQ(fx.workflow.stages_completed(), 3u);
}

}  // namespace
}  // namespace flotilla::core
