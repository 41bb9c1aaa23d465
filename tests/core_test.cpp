#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
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
  TaskLabels labels;
  const Task::Context context(labels);
  Task task(0, {}, context);
  EXPECT_EQ(task.uid(), "task.000000");
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
  TaskLabels labels;
  const Task::Context context(labels);
  Task task(0, {}, context);
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
  TaskLabels labels;
  const Task::Context context(labels);
  Task task(0, {}, context);
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
  TaskLabels labels;
  const Task::Context context(labels);
  Task task(0, {}, context);
  EXPECT_THROW(task.advance(TaskState::kRunning, 1.0), util::Error);
  try {
    task.advance(TaskState::kRunning, 1.0);
    ADD_FAILURE() << "NEW -> RUNNING was accepted";
  } catch (const util::Error& e) {
    // The message names the task by its canonical uid.
    EXPECT_NE(std::string(e.what()).find("task task.000000: invalid "
                                         "transition NEW -> RUNNING"),
              std::string::npos)
        << e.what();
  }
  task.advance(TaskState::kTmgrScheduling, 1.0);
  EXPECT_THROW(task.advance(TaskState::kRunning, 2.0), util::Error);
  task.advance(TaskState::kCanceled, 3.0);
  EXPECT_THROW(task.advance(TaskState::kDone, 4.0), util::Error);
}

TEST(TaskStateMachine, NewIsNeverEntered) {
  TaskLabels labels;
  const Task::Context context(labels);
  Task task(0, {}, context);
  sim::Time t = -1.0;
  EXPECT_FALSE(task.state_time(TaskState::kNew, t));
  task.advance(TaskState::kTmgrScheduling, 1.0);
  EXPECT_FALSE(task.state_time(TaskState::kNew, t));
  task.advance(TaskState::kCanceled, 2.0);
  EXPECT_FALSE(task.state_time(TaskState::kNew, t));
  EXPECT_DOUBLE_EQ(t, -1.0);
}

// Every non-final state has its own slot, so a retry through the staging
// and executor states keeps each first entry time.
TEST(TaskStateMachine, RetriesKeepTheFirstEntryTimeOfEveryState) {
  TaskLabels labels;
  const Task::Context context(labels);
  Task task(0, {}, context);
  task.advance(TaskState::kTmgrScheduling, 1.0);
  task.advance(TaskState::kStagingInput, 2.0);
  task.advance(TaskState::kAgentScheduling, 3.0);
  task.advance(TaskState::kExecutorPending, 4.0);
  task.advance(TaskState::kRunning, 5.0);
  task.advance(TaskState::kAgentScheduling, 6.0);  // retry from Running
  task.advance(TaskState::kExecutorPending, 7.0);
  task.advance(TaskState::kAgentScheduling, 8.0);  // retry from Pending
  task.advance(TaskState::kExecutorPending, 9.0);
  task.advance(TaskState::kRunning, 10.0);
  task.advance(TaskState::kStagingOutput, 11.0);
  task.advance(TaskState::kDone, 12.0);
  const std::vector<std::pair<TaskState, sim::Time>> first = {
      {TaskState::kTmgrScheduling, 1.0},  {TaskState::kStagingInput, 2.0},
      {TaskState::kAgentScheduling, 3.0}, {TaskState::kExecutorPending, 4.0},
      {TaskState::kRunning, 5.0},         {TaskState::kStagingOutput, 11.0},
      {TaskState::kDone, 12.0}};
  for (const auto& [state, time] : first) {
    sim::Time t = -1.0;
    ASSERT_TRUE(task.state_time(state, t)) << to_string(state);
    EXPECT_EQ(t, time) << to_string(state);
  }
}

// The three final states share one time slot: a task that entered one of
// them reports a time for that one only.
TEST(TaskStateMachine, OnlyTheFinalStateEnteredReportsATime) {
  const std::vector<TaskState> finals = {TaskState::kDone, TaskState::kFailed,
                                         TaskState::kCanceled};
  TaskLabels labels;
  const Task::Context context(labels);
  TaskId id = 0;
  const std::vector<std::string> uids = {"task.000000", "task.000001",
                                         "task.000002"};
  for (const TaskState entered : finals) {
    Task task(id, {}, context);
    EXPECT_EQ(task.uid(), uids[id]);
    ++id;
    task.advance(TaskState::kTmgrScheduling, 1.0);
    task.advance(TaskState::kAgentScheduling, 2.0);
    task.advance(TaskState::kExecutorPending, 3.0);
    task.advance(TaskState::kRunning, 4.0);
    task.advance(entered, 5.0);
    for (const TaskState final_state : finals) {
      sim::Time t = -1.0;
      EXPECT_EQ(task.state_time(final_state, t), final_state == entered)
          << to_string(entered) << " asked " << to_string(final_state);
      EXPECT_EQ(t, final_state == entered ? 5.0 : -1.0);
    }
  }
}

TEST(TaskStateMachine, ErrorIsEmptyUntilSet) {
  TaskLabels labels;
  const Task::Context context(labels);
  Task a(0, {}, context);
  Task b(1, {}, context);
  EXPECT_EQ(a.uid(), "task.000000");
  EXPECT_EQ(b.uid(), "task.000001");
  EXPECT_EQ(a.error(), "");
  EXPECT_EQ(b.error(), "");
  b.set_error("backend lost the task");
  EXPECT_EQ(b.error(), "backend lost the task");
  EXPECT_EQ(a.error(), "");
  b.set_error("canceled by user");  // a later attempt's error replaces it
  EXPECT_EQ(b.error(), "canceled by user");
  EXPECT_EQ(a.error(), "");
}

// ------------------------------------------------------------ task shapes

TEST(TaskShapes, ABulkCampaignOfOneShapeInternsOneShape) {
  TaskLabels labels;
  const Task::Context context(labels);
  TaskDescription desc;
  desc.demand.cores = 4;
  desc.stage = "docking";
  std::vector<Task> tasks;
  tasks.reserve(1000);
  for (TaskId id = 0; id < 1000; ++id) {
    desc.duration = 0.5 * id;  // duration is per task, not in the shape
    tasks.emplace_back(id, desc, context);
  }
  EXPECT_EQ(labels.shape_count(), 1u);
  for (const Task& task : tasks) {
    EXPECT_EQ(&task.demand(), &tasks.front().demand());
    EXPECT_EQ(task.stage(), "docking");
    EXPECT_EQ(task.duration(), 0.5 * task.id());
  }
}

// Trace replay gives every task its own description: the table holds one
// shape each, and each task reads back every field exactly, down to the
// sign of a zero. Each description differs from the defaults in one field
// only, so a shape comparison that skipped any field would merge two.
TEST(TaskShapes, DistinctShapesInternOneEachWithEveryFieldExact) {
  TaskLabels labels;
  const Task::Context context(labels);
  constexpr int kFields = 13;
  constexpr int kShapes = kFields * 15;
  const auto describe = [](int i) {
    TaskDescription d;
    const int k = i / kFields + 1;  // 1..15
    const std::string tag = std::to_string(k);
    switch (i % kFields) {
      case 0: d.demand.cores = 1 + k; break;
      case 1: d.demand.gpus = k; break;
      case 2: d.demand.cores_per_node = k; break;
      case 3: d.backend_hint = "b" + tag; break;
      case 4: d.max_retries = k; break;
      case 5: d.fail_probability = 1.0 / (k + 1); break;
      case 6: d.stage = "s" + tag; break;
      // -0.0 equals 0.0 as a number: only the bit pattern tells it apart.
      case 7: d.input_mb = k == 1 ? -0.0 : 0.5 * k; break;
      case 8: d.output_mb = 0.25 * k; break;
      case 9: d.gang = "g" + tag; break;
      case 10: d.gang_size = k; break;
      case 11: d.priority = 16 + k; break;
      default:  // the priority of case 11, so only the modality differs
        d.modality = TaskModality::kFunction;
        d.priority = 16 + k;
        break;
    }
    return d;
  };
  std::vector<Task> tasks;
  tasks.reserve(kShapes);
  for (int i = 0; i < kShapes; ++i) {
    const auto id = static_cast<TaskId>(i);
    tasks.emplace_back(id, describe(i), context);
  }
  EXPECT_EQ(labels.shape_count(), static_cast<std::size_t>(kShapes));
  for (int i = 0; i < kShapes; ++i) {
    const TaskDescription d = describe(i);
    const Task& task = tasks[static_cast<std::size_t>(i)];
    EXPECT_EQ(task.demand(), d.demand);
    EXPECT_EQ(task.modality(), d.modality);
    EXPECT_EQ(task.backend_hint(), d.backend_hint);
    EXPECT_EQ(task.max_retries(), d.max_retries);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(task.fail_probability()),
              std::bit_cast<std::uint64_t>(d.fail_probability));
    EXPECT_EQ(task.stage(), d.stage);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(task.input_mb()),
              std::bit_cast<std::uint64_t>(d.input_mb));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(task.output_mb()),
              std::bit_cast<std::uint64_t>(d.output_mb));
    EXPECT_EQ(task.gang(), d.gang);
    EXPECT_EQ(task.gang_size(), d.gang_size);
    EXPECT_EQ(task.priority(), d.priority);
  }
  // A description seen before, past the memo of recent shapes, adds no
  // shape.
  const Task repeat(kShapes, describe(0), context);
  EXPECT_EQ(&repeat.demand(), &tasks.front().demand());
  EXPECT_EQ(labels.shape_count(), static_cast<std::size_t>(kShapes));
  // Each description right after the defaults: the memo of recent shapes
  // holds the defaults, so only a comparison of every field tells them
  // apart.
  for (int i = 0; i < kFields; ++i) {
    const auto id = static_cast<TaskId>(1000 + 2 * i);
    const Task plain(id, TaskDescription{}, context);
    const Task one(id + 1, describe(i), context);
    EXPECT_NE(&one.demand(), &plain.demand()) << "field " << i;
    EXPECT_EQ(&one.demand(), &tasks[static_cast<std::size_t>(i)].demand());
  }
  EXPECT_EQ(labels.shape_count(), static_cast<std::size_t>(kShapes + 1));
  // Ids count up in first-seen order, and a shape seen again keeps its id.
  TaskShape again;
  again.gang_size = 3;
  again.stage = labels.intern("stage.3");
  EXPECT_EQ(labels.intern(again), static_cast<ShapeId>(kShapes + 1));
  EXPECT_EQ(labels.intern(TaskShape{}), static_cast<ShapeId>(kShapes));
  EXPECT_EQ(labels.intern(again), static_cast<ShapeId>(kShapes + 1));
  EXPECT_EQ(labels.shape_count(), static_cast<std::size_t>(kShapes + 2));
}

// demand() returns a reference into the shape table; interning more
// shapes must not move it.
TEST(TaskShapes, DemandReferenceOutlivesTableGrowth) {
  TaskLabels labels;
  const Task::Context context(labels);
  TaskDescription desc;
  desc.demand = {.cores = 3, .gpus = 1, .cores_per_node = 2};
  const Task task(0, desc, context);
  const platform::ResourceDemand& demand = task.demand();
  for (int i = 1; i <= 5000; ++i) {
    TaskShape shape;
    shape.demand.cores = i;
    shape.priority = i % 32;
    labels.intern(shape);
  }
  EXPECT_EQ(labels.shape_count(), 5001u);
  EXPECT_EQ(&task.demand(), &demand);
  EXPECT_EQ(demand, desc.demand);
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

// A task fires the hook set that existed when it was submitted: a hook
// registered later reaches only later tasks, and a set fires in
// registration order.
TEST(TaskManager, TransitionHooksAreSnapshotAtSubmit) {
  PilotFixture fx({.nodes = 2, .backends = {{"flux", 1}}});
  struct Seen {
    char hook;
    std::string uid;
    TaskState from;
    TaskState to;
  };
  std::vector<Seen> seen;
  const auto hook = [&seen](char name) {
    return [&seen, name](const Task& task, TaskState from, TaskState to) {
      seen.push_back({name, task.uid(), from, to});
    };
  };
  fx.tmgr->on_transition(hook('A'));
  const std::string first = fx.tmgr->submit(null_task());
  fx.tmgr->on_transition(hook('B'));
  const std::string second = fx.tmgr->submit(null_task());
  fx.session.run();
  ASSERT_TRUE(fx.tmgr->idle());

  std::vector<Seen> of_first;
  std::vector<Seen> of_second;
  for (const auto& s : seen) {
    (s.uid == first ? of_first : of_second).push_back(s);
  }
  ASSERT_FALSE(of_first.empty());
  TaskState last = TaskState::kNew;
  for (const auto& s : of_first) {
    EXPECT_EQ(s.hook, 'A');
    EXPECT_EQ(s.from, last);
    last = s.to;
  }
  EXPECT_EQ(last, TaskState::kDone);

  // Both tasks took the same path, and each of the second's transitions
  // fired A, then B.
  ASSERT_EQ(of_second.size(), 2 * of_first.size());
  last = TaskState::kNew;
  for (std::size_t i = 0; i < of_second.size(); i += 2) {
    const Seen& a = of_second[i];
    const Seen& b = of_second[i + 1];
    EXPECT_EQ(a.uid, second);
    EXPECT_EQ(a.hook, 'A');
    EXPECT_EQ(b.hook, 'B');
    EXPECT_EQ(a.from, last);
    EXPECT_EQ(b.from, last);
    EXPECT_EQ(a.to, b.to);
    last = a.to;
  }
  EXPECT_EQ(last, TaskState::kDone);
}

TEST(TaskManager, RefusesInvalidDescriptions) {
  PilotFixture fx({.nodes = 2, .backends = {{"flux", 1}}});
  const auto with = [](auto edit) {
    TaskDescription d = null_task();
    d.name = "bad.0";
    edit(d);
    return d;
  };
  const std::vector<TaskDescription> bad = {
      with([](TaskDescription& d) { d.duration = -1.0; }),
      with([](TaskDescription& d) {
        d.duration = std::numeric_limits<double>::infinity();
      }),
      with([](TaskDescription& d) { d.duration = std::nan(""); }),
      with([](TaskDescription& d) { d.fail_probability = -0.1; }),
      with([](TaskDescription& d) { d.fail_probability = 1.5; }),
      with([](TaskDescription& d) { d.fail_probability = std::nan(""); }),
      with([](TaskDescription& d) { d.max_retries = -1; }),
      with([](TaskDescription& d) { d.demand.cores = -1; }),
      with([](TaskDescription& d) { d.demand.gpus = -2; }),
      with([](TaskDescription& d) { d.demand.cores_per_node = -56; }),
  };
  for (const auto& description : bad) {
    try {
      fx.tmgr->submit(description);
      ADD_FAILURE() << "accepted an invalid description";
    } catch (const util::Error& e) {
      EXPECT_NE(std::string(e.what()).find("bad.0"), std::string::npos)
          << e.what();
    }
    // A batch with one bad description is refused as a whole.
    std::vector<TaskDescription> batch{null_task(), description};
    EXPECT_THROW(fx.tmgr->submit_batch(batch), util::Error);
  }
  EXPECT_EQ(fx.tmgr->submitted(), 0u);
  // The boundaries are accepted.
  TaskDescription edge = null_task();
  edge.fail_probability = 1.0;
  edge.max_retries = 0;
  fx.tmgr->submit(edge);
  EXPECT_EQ(fx.tmgr->submitted(), 1u);
}

// TMGR intake exactness. Single submits, a bulk submit, submit_batch
// transactions and submits made from completion handlers (two of them
// inside an intake completion, when a task cancelled in intake reaches the
// agent) interleave on one intake. The values are pinned: the order in
// which tasks reach the agent, the virtual time each arrives (its intake
// completion), intake_backlog() at each arrival and after each submit
// step. Tasks cancelled while in intake are cancelled on arrival.
TEST(TaskManager, IntakeOrderTimesAndBacklogArePinned) {
  PilotFixture fx({.nodes = 2, .backends = {{"flux", 1}}});
  TaskManager& tmgr = *fx.tmgr;
  const auto named = [](const std::string& name) {
    TaskDescription desc = null_task();
    desc.name = name;
    return desc;
  };
  const auto names = [&](const std::string& stem, int n) {
    std::vector<TaskDescription> descs;
    for (int i = 1; i <= n; ++i) {
      descs.push_back(named(stem + std::to_string(i)));
    }
    return descs;
  };
  struct Arrival {
    std::string name;
    TaskState to;
    double time;
    std::size_t backlog;
  };
  constexpr TaskState kAgent = TaskState::kAgentScheduling;
  constexpr TaskState kCanceled = TaskState::kCanceled;
  std::vector<Arrival> arrivals;
  tmgr.on_transition([&](const Task& task, TaskState from, TaskState to) {
    if (from != TaskState::kTmgrScheduling) return;
    arrivals.push_back({task.name(), to, fx.session.now(),
                        tmgr.intake_backlog()});
  });
  std::vector<std::size_t> backlogs;
  std::string b3;
  std::string f2;
  std::string a;
  std::string i2;
  tmgr.on_complete([&](const Task& task) {
    if (task.uid() == b3) {
      tmgr.submit(named("G"));  // inside an intake completion, FIFO busy
    } else if (task.uid() == f2) {
      auto k = names("K", 2);
      tmgr.submit_batch(k);  // inside one, G still waiting
    } else if (task.uid() == a) {
      tmgr.submit(named("H"));  // after the intake drained
      i2 = tmgr.submit(names("I", 2))[1];
      EXPECT_TRUE(tmgr.cancel(i2));
    } else if (task.uid() == i2) {
      tmgr.submit(named("J"));  // inside one, nothing else waiting
    } else {
      return;
    }
    backlogs.push_back(tmgr.intake_backlog());
  });
  a = tmgr.submit(named("A"));
  backlogs.push_back(tmgr.intake_backlog());
  const auto bulk = tmgr.submit(names("B", 5));
  backlogs.push_back(tmgr.intake_backlog());
  b3 = bulk[2];
  EXPECT_TRUE(tmgr.cancel(b3));
  auto c = names("C", 3);
  tmgr.submit_batch(c);
  backlogs.push_back(tmgr.intake_backlog());
  tmgr.submit(named("D"));
  backlogs.push_back(tmgr.intake_backlog());
  auto e = names("E", 2);
  tmgr.submit_batch(e);
  backlogs.push_back(tmgr.intake_backlog());
  const auto tail = tmgr.submit(names("F", 2));
  backlogs.push_back(tmgr.intake_backlog());
  f2 = tail[1];
  EXPECT_TRUE(tmgr.cancel(f2));
  fx.session.run();
  ASSERT_TRUE(tmgr.idle());
  EXPECT_EQ(tmgr.task(b3).state(), TaskState::kCanceled);
  EXPECT_EQ(tmgr.task(f2).state(), TaskState::kCanceled);
  EXPECT_EQ(tmgr.task(i2).state(), TaskState::kCanceled);
  EXPECT_EQ(tmgr.intake_backlog(), 0u);

  // Recorded before the intake became a cursor over task positions.
  const std::vector<Arrival> expected = {
      {"A", kAgent, 20.828169205932792, 10},
      {"B1", kAgent, 20.828343411073735, 9},
      {"B2", kAgent, 20.828540410358592, 8},
      {"B3", kCanceled, 20.828764314360644, 7},
      {"B4", kAgent, 20.828952731339694, 7},
      {"B5", kAgent, 20.829183039966704, 6},
      {"C1", kAgent, 20.829629632760653, 5},
      {"C2", kAgent, 20.829629632760653, 5},
      {"C3", kAgent, 20.829629632760653, 5},
      {"D", kAgent, 20.829816860667496, 4},
      {"E1", kAgent, 20.83026402789757, 3},
      {"E2", kAgent, 20.83026402789757, 3},
      {"F1", kAgent, 20.830461321402289, 2},
      {"F2", kCanceled, 20.830644951609727, 1},
      {"G", kAgent, 20.830814536443729, 1},
      {"K1", kAgent, 20.831235063578468, 0},
      {"K2", kAgent, 20.831235063578468, 0},
      {"H", kAgent, 20.87695280744089, 2},
      {"I1", kAgent, 20.877151451995612, 1},
      {"I2", kCanceled, 20.877346543158865, 0},
      {"J", kAgent, 20.877526661604069, 0},
  };
  ASSERT_EQ(arrivals.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(arrivals[i].name, expected[i].name) << "arrival " << i;
    EXPECT_EQ(arrivals[i].to, expected[i].to) << expected[i].name;
    EXPECT_EQ(arrivals[i].time, expected[i].time) << expected[i].name;
    EXPECT_EQ(arrivals[i].backlog, expected[i].backlog) << expected[i].name;
  }
  // After each of the six submit steps, then in the B3, F2, A and I2
  // handlers.
  EXPECT_EQ(backlogs,
            (std::vector<std::size_t>{1, 6, 7, 8, 9, 11, 8, 2, 3, 1}));
}

TEST(Agent, RoutesByModalityInHybridPilot) {
  PilotFixture fx({.nodes = 4,
                   .backends = {{.type = "flux", .partitions = 1},
                                {.type = "dragon"}}});
  int done = 0;
  fx.tmgr->on_complete([&](const Task& task) {
    ++done;
    if (task.modality() == TaskModality::kFunction) {
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
  Session session(frontier_spec(), 2, 42);
  const obs::Tracer& tracer = session.enable_tracing();
  PilotManager pmgr(session);
  auto& pilot = pmgr.submit(
      {.nodes = 2, .backends = {{"flux", 1}}, .trace_tasks = true});
  pilot.launch([](bool ok, const std::string&) { EXPECT_TRUE(ok); });
  session.run(240.0);
  TaskManager tmgr(session, pilot.agent());
  tmgr.on_complete([](const Task&) {});
  const std::string uid = tmgr.submit(null_task());
  session.run();
  // The task's run span and its per-state instants, ending in kDone.
  bool run_begin = false;
  std::vector<double> states;
  tracer.for_each([&](const obs::Record& r) {
    if (r.entity != uid) return;
    run_begin |= r.kind == obs::RecordKind::kBegin &&
                 r.type == obs::SpanType::kTaskRun;
    if (r.type == obs::SpanType::kTaskState) {
      EXPECT_EQ(r.kind, obs::RecordKind::kInstant);
      states.push_back(r.value);
    }
  });
  EXPECT_TRUE(run_begin);
  ASSERT_FALSE(states.empty());
  EXPECT_EQ(states.back(), static_cast<double>(TaskState::kDone));
}

// ---------------------------------------------------------------- Session

TEST(Session, HybridStackRunsOnOneSerialEngine) {
  // The whole stack shares one serial engine: every completion, from any
  // flux partition or the dragon runtime, is delivered from inside an
  // event in nondecreasing virtual time, and the delivering events fire
  // in calendar key order.
  PilotFixture fx({.nodes = 4,
                   .backends = {{.type = "flux", .partitions = 2},
                                {.type = "dragon"}}});
  int done = 0;
  sim::Time last = 0.0;
  sim::Engine::EventKey last_key;
  bool ordered = true;
  bool keys_ordered = true;
  fx.tmgr->on_complete([&](const Task&) {
    ++done;
    if (fx.session.now() < last) ordered = false;
    last = fx.session.now();
    const sim::Engine::EventKey key = fx.session.engine().current_key();
    if (key < last_key || key.time != fx.session.now()) keys_ordered = false;
    last_key = key;
  });
  for (int i = 0; i < 40; ++i) {
    auto desc = null_task();
    if (i % 2) desc.modality = TaskModality::kFunction;
    fx.tmgr->submit(std::move(desc));
  }
  fx.session.run();
  EXPECT_EQ(done, 40);
  EXPECT_TRUE(ordered);
  EXPECT_TRUE(keys_ordered);
}

}  // namespace
}  // namespace flotilla::core
