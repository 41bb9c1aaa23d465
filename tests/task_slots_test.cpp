// Dense task slots in the RP core: TaskManager and Agent keep their tasks in
// vectors indexed by TaskId (the uid's ordinal), store no uid, and resolve
// the string ids that cross the TaskBackend seam by parsing the ordinal and
// checking the canonical width. These tests drive that resolution through a
// fake backend and the public API:
//
//  - task_uid formats as IdRegistry does; uid_less is uid text order
//  - task_ordinal parses "task.<digits>" and nothing else; canonical_task_id
//    also refuses every padding but IdRegistry's
//  - malformed, non-canonical, overflowing, out-of-range, foreign and
//    already-finalized ids resolve to no task: the agent ignores starts and
//    completions for them, cancel returns false, task() raises its labeled
//    "unknown task" error
//  - for_each_task keeps sorted-uid order across the 6 -> 7 digit boundary
//  - a bulk submit returns its own uids, also when a transition hook
//    submits in between
//  - two pilots with two task managers on one session: each manager and
//    agent resolves only its own uids
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/flotilla.hpp"
#include "util/error.hpp"

namespace flotilla::core {
namespace {

// Records what the agent submits and lets the test report starts and
// completions for any id at all.
class FakeBackend : public platform::TaskBackend {
 public:
  explicit FakeBackend(platform::NodeRange span) : span_(span) {}

  const std::string& name() const override { return name_; }
  bool accepts(platform::TaskModality) const override { return true; }
  platform::NodeRange span() const override { return span_; }
  void bootstrap(ReadyHandler ready) override { ready(true, ""); }
  void submit(platform::LaunchRequest request) override {
    submitted.push_back(std::move(request.id));
  }
  void on_task_start(StartHandler handler) override {
    start_ = std::move(handler);
  }
  void on_task_complete(CompletionHandler handler) override {
    complete_ = std::move(handler);
  }
  void shutdown() override { healthy_ = false; }
  bool healthy() const override { return healthy_; }
  std::size_t inflight() const override { return 0; }

  void start(const std::string& id) { start_(id); }
  void complete(const std::string& id) {
    platform::LaunchOutcome outcome;
    outcome.id = id;
    complete_(outcome);
  }
  // Starts and completes everything submitted so far.
  void finish_all() {
    auto ids = std::move(submitted);
    submitted.clear();
    for (const auto& id : ids) {
      start(id);
      complete(id);
    }
  }

  std::vector<std::string> submitted;

 private:
  std::string name_ = "fake";
  platform::NodeRange span_;
  StartHandler start_;
  CompletionHandler complete_;
  bool healthy_ = true;
};

// One agent over a fake backend, with its task manager.
struct Stack {
  std::unique_ptr<Agent> agent;
  FakeBackend* backend = nullptr;
  std::unique_ptr<TaskManager> tmgr;

  Stack(Session& session, platform::NodeRange allocation) {
    agent = std::make_unique<Agent>(session, allocation);
    auto fake = std::make_unique<FakeBackend>(allocation);
    backend = fake.get();
    agent->add_backend(std::move(fake), 0.0);
    bool ready = false;
    agent->bootstrap([&ready](bool ok, const std::string&) { ready = ok; });
    session.run();
    EXPECT_TRUE(ready);
    tmgr = std::make_unique<TaskManager>(session, *agent);
  }
};

TaskDescription null_task() {
  TaskDescription desc;
  desc.demand.cores = 1;
  return desc;
}

TEST(TaskOrdinal, ParsesTaskUidsOnly) {
  EXPECT_EQ(task_ordinal("task.000042"), std::optional<TaskId>(42));
  EXPECT_EQ(task_ordinal("task.1000000"), std::optional<TaskId>(1000000));
  EXPECT_EQ(task_ordinal("task.0"), std::optional<TaskId>(0));
  // Padding is not checked here; resolution checks the width (see
  // canonical_task_id).
  EXPECT_EQ(task_ordinal("task.00042"), std::optional<TaskId>(42));
  for (const char* bad :
       {"", "task", "task.", "task.12a", "task.-1", "task.+1", "task. 1",
        "job.000001", "Task.000001", "task.4294967296",
        "task.9999999999999999999999999"}) {
    EXPECT_EQ(task_ordinal(bad), std::nullopt) << bad;
  }
}

// The uid a task reports is the one the session's registry would have
// issued for its ordinal, across the 6 -> 7 digit boundary.
TEST(TaskUid, MatchesIdRegistryFormatting) {
  util::IdRegistry registry;
  for (const TaskId id : {0u, 42u, 999'999u, 1'000'000u}) {
    while (registry.count("task") < id) registry.next_ordinal("task");
    const std::string issued = registry.next("task");
    EXPECT_EQ(task_uid(id), issued);
    TaskLabels labels;
    const Task::Context context(labels);
    EXPECT_EQ(Task(id, {}, context).uid(), issued);
  }
  EXPECT_EQ(task_uid(42), "task.000042");
  EXPECT_EQ(task_uid(1'000'000), "task.1000000");
  EXPECT_EQ(task_uid(4'294'967'295u), "task.4294967295");
}

TEST(TaskUid, UidLessIsUidTextOrder) {
  const std::vector<TaskId> ids = {0,       1,       9,         10,
                                   99'999,  999'998, 999'999,   1'000'000,
                                   1'000'001, 1'999'999, 10'000'000,
                                   100'000, 4'294'967'295u};
  for (const TaskId a : ids) {
    for (const TaskId b : ids) {
      EXPECT_EQ(uid_less(a, b), task_uid(a) < task_uid(b)) << a << " " << b;
    }
  }
}

TEST(TaskUid, CanonicalIdRefusesEveryOtherPadding) {
  EXPECT_EQ(canonical_task_id("task.000042"), std::optional<TaskId>(42));
  EXPECT_EQ(canonical_task_id("task.000000"), std::optional<TaskId>(0));
  EXPECT_EQ(canonical_task_id("task.1000000"),
            std::optional<TaskId>(1'000'000));
  EXPECT_EQ(canonical_task_id("task.4294967295"),
            std::optional<TaskId>(4'294'967'295u));
  for (const char* bad :
       {"task.00042", "task.0000042", "task.42", "task.0", "task.01000000",
        "task.", "task.12a", "job.000042", "task.4294967296"}) {
    EXPECT_EQ(canonical_task_id(bad), std::nullopt) << bad;
  }
}

TEST(TaskLabels, InternsEachTextOnce) {
  TaskLabels labels;
  EXPECT_EQ(labels.intern(""), TaskLabels::kEmpty);
  EXPECT_EQ(labels.text(TaskLabels::kEmpty), "");
  const LabelId a = labels.intern("esmacs");
  const LabelId b = labels.intern("docking");
  EXPECT_NE(a, TaskLabels::kEmpty);
  EXPECT_NE(a, b);
  EXPECT_EQ(labels.intern(std::string("esm") + "acs"), a);
  EXPECT_EQ(labels.text(a), "esmacs");
  EXPECT_EQ(labels.text(b), "docking");
  EXPECT_EQ(labels.name(7), "");
  labels.set_name(7, "docking.12");
  EXPECT_EQ(labels.name(7), "docking.12");
  EXPECT_EQ(labels.name(8), "");
}

// A task reads its labels and name from the session's table, so they stay
// readable after the agent that routed it is gone.
TEST(TaskSlots, LabelsAndNamesOutliveTheAgent) {
  Session session(platform::frontier_spec(), 2, 42);
  Stack stack(session, {0, 2});
  auto labeled = null_task();
  labeled.name = "docking.12";
  labeled.stage = "docking";
  labeled.backend_hint = "fake";
  labeled.priority = 3;
  labeled.duration = 2.5;
  const std::string a = stack.tmgr->submit(std::move(labeled));
  const std::string b = stack.tmgr->submit(null_task());
  session.run();
  stack.backend->finish_all();
  session.run();
  ASSERT_TRUE(stack.tmgr->idle());
  stack.agent.reset();

  const Task& ta = stack.tmgr->task(a);
  EXPECT_EQ(ta.name(), "docking.12");
  EXPECT_EQ(ta.stage(), "docking");
  EXPECT_EQ(ta.backend_hint(), "fake");
  EXPECT_EQ(ta.backend(), "fake");
  EXPECT_EQ(ta.priority(), 3);
  EXPECT_EQ(ta.duration(), 2.5);
  const Task& tb = stack.tmgr->task(b);
  EXPECT_EQ(tb.name(), "");
  EXPECT_EQ(tb.stage(), "");
  EXPECT_EQ(tb.gang(), "");
  EXPECT_EQ(tb.backend_hint(), "");
  EXPECT_EQ(tb.backend(), "fake");
  EXPECT_EQ(tb.error(), "");
  EXPECT_EQ(tb.priority(), 16);
}

TEST(TaskSlots, UnresolvableIdsAreIgnoredAsBefore) {
  Session session(platform::frontier_spec(), 2, 42);
  Stack stack(session, {0, 2});
  auto& tmgr = *stack.tmgr;
  int finals = 0;
  tmgr.on_complete([&finals](const Task&) { ++finals; });

  // A finalized task, then a live one with ordinal 42.
  const std::string done = tmgr.submit(null_task());
  session.run();
  stack.backend->finish_all();
  session.run();
  ASSERT_EQ(finals, 1);
  for (int i = 1; i < 42; ++i) session.ids().next("task");
  const std::string live = tmgr.submit(null_task());
  ASSERT_EQ(live, "task.000042");
  session.run();
  ASSERT_EQ(stack.backend->submitted, std::vector<std::string>{live});
  ASSERT_EQ(stack.agent->inflight(), 1u);

  const std::vector<std::string> unresolvable = {
      "task.",
      "task.12a",
      "job.000001",
      "task.00042",                         // non-canonical padding of 42
      "task.0000000000000000000000042",     // 25 digits that parse to 42
      "task.9999999999999999999999999",     // 25 digits, overflows
      "task.000043",                        // past the end of the slab
      "task.999999",
  };
  for (const auto& id : unresolvable) {
    stack.backend->start(id);
    stack.backend->complete(id);
    session.run();
    EXPECT_FALSE(tmgr.cancel(id)) << id;
    EXPECT_FALSE(stack.agent->cancel(id)) << id;
    try {
      (void)tmgr.task(id);
      ADD_FAILURE() << "task(" << id << ") resolved";
    } catch (const util::Error& e) {
      EXPECT_NE(std::string(e.what()).find("unknown task"), std::string::npos)
          << e.what();
    }
  }
  // The finalized task's id: the agent ignores it, cancel refuses it, and
  // the manager still reports it (it keeps every task it was given).
  stack.backend->start(done);
  stack.backend->complete(done);
  session.run();
  EXPECT_FALSE(tmgr.cancel(done));
  EXPECT_FALSE(stack.agent->cancel(done));
  EXPECT_EQ(tmgr.task(done).state(), TaskState::kDone);
  EXPECT_EQ(tmgr.task(done).attempts(), 1);

  // None of that touched the live task.
  EXPECT_EQ(finals, 1);
  EXPECT_EQ(stack.agent->inflight(), 1u);
  EXPECT_EQ(tmgr.task(live).state(), TaskState::kExecutorPending);
  EXPECT_FALSE(tmgr.task(live).cancel_requested());

  stack.backend->finish_all();
  session.run();
  EXPECT_EQ(finals, 2);
  EXPECT_EQ(tmgr.task(live).state(), TaskState::kDone);
  EXPECT_EQ(stack.agent->inflight(), 0u);
  EXPECT_TRUE(tmgr.idle());
}

// One id, three spellings: only IdRegistry's width names the task, at the
// manager and at each of the agent's lookups (start, completion, cancel).
TEST(TaskSlots, OnlyTheCanonicalWidthResolves) {
  Session session(platform::frontier_spec(), 2, 42);
  Stack stack(session, {0, 2});
  auto& tmgr = *stack.tmgr;
  int finals = 0;
  tmgr.on_complete([&finals](const Task&) { ++finals; });
  for (int i = 0; i < 42; ++i) session.ids().next("task");
  const std::string uid = tmgr.submit(null_task());
  ASSERT_EQ(uid, "task.000042");
  session.run();
  ASSERT_EQ(stack.agent->inflight(), 1u);

  for (const std::string padded : {"task.00042", "task.0000042"}) {
    stack.backend->start(padded);
    stack.backend->complete(padded);
    session.run();
    EXPECT_THROW((void)tmgr.task(padded), util::Error) << padded;
    EXPECT_FALSE(tmgr.cancel(padded)) << padded;
    EXPECT_FALSE(stack.agent->cancel(padded)) << padded;
  }
  EXPECT_EQ(finals, 0);
  EXPECT_EQ(tmgr.task(uid).state(), TaskState::kExecutorPending);
  EXPECT_FALSE(tmgr.task(uid).cancel_requested());

  stack.backend->start(uid);
  EXPECT_EQ(tmgr.task(uid).state(), TaskState::kRunning);
  EXPECT_TRUE(stack.agent->cancel(uid));
  EXPECT_TRUE(tmgr.task(uid).cancel_requested());
  EXPECT_TRUE(tmgr.cancel(uid));
  stack.backend->complete(uid);
  session.run();
  EXPECT_EQ(finals, 1);
  EXPECT_EQ(tmgr.task(uid).state(), TaskState::kCanceled);
}

// The uid list is built after the descriptions are freed, from the tasks
// the call created: a transition hook that submits while the bulk runs
// takes ids in between, and they are not in the list.
TEST(TaskSlots, BulkSubmitReturnsItsOwnUidsWhenAHookSubmits) {
  Session session(platform::frontier_spec(), 2, 42);
  Stack stack(session, {0, 2});
  auto& tmgr = *stack.tmgr;
  std::vector<std::string> nested;
  tmgr.on_transition([&](const Task& task, TaskState, TaskState to) {
    if (to == TaskState::kTmgrScheduling && task.name() == "spawns") {
      nested.push_back(tmgr.submit(null_task()));
    }
  });
  std::vector<TaskDescription> bulk(4, null_task());
  bulk[1].name = "spawns";
  bulk[3].name = "spawns";
  const auto uids = tmgr.submit(std::move(bulk));
  EXPECT_EQ(uids, (std::vector<std::string>{"task.000000", "task.000001",
                                            "task.000003", "task.000004"}));
  EXPECT_EQ(nested,
            (std::vector<std::string>{"task.000002", "task.000005"}));
  EXPECT_EQ(tmgr.task("task.000003").name(), "");
  EXPECT_EQ(tmgr.task("task.000004").name(), "spawns");

  // Without a hook submitting, the list is the run of positions.
  const auto more = tmgr.submit(std::vector<TaskDescription>(2, null_task()));
  EXPECT_EQ(more, (std::vector<std::string>{"task.000006", "task.000007"}));
  EXPECT_EQ(tmgr.submitted(), 8u);
}

TEST(TaskSlots, ForEachTaskKeepsUidOrderPastSixDigits) {
  Session session(platform::frontier_spec(), 2, 42);
  Stack stack(session, {0, 2});
  for (int i = 0; i < 999'998; ++i) session.ids().next("task");
  const auto uids = stack.tmgr->submit(
      std::vector<TaskDescription>{null_task(), null_task(), null_task()});
  ASSERT_EQ(uids, (std::vector<std::string>{"task.999998", "task.999999",
                                            "task.1000000"}));
  std::vector<std::string> visited;
  stack.tmgr->for_each_task(
      [&visited](const Task& task) { visited.push_back(task.uid()); });
  EXPECT_EQ(visited, (std::vector<std::string>{"task.1000000", "task.999998",
                                               "task.999999"}));

  // The seven-digit uid resolves through the seam like any other.
  session.run();
  stack.backend->finish_all();
  session.run();
  EXPECT_TRUE(stack.tmgr->idle());
  EXPECT_EQ(stack.tmgr->task("task.1000000").state(), TaskState::kDone);
}

TEST(TaskSlots, TwoManagersResolveOnlyTheirOwnUids) {
  Session session(platform::frontier_spec(), 4, 42);
  Stack a(session, {0, 2});
  Stack b(session, {2, 2});
  std::vector<std::string> uids_a;
  std::vector<std::string> uids_b;
  for (int i = 0; i < 5; ++i) {
    uids_a.push_back(a.tmgr->submit(null_task()));
    uids_b.push_back(b.tmgr->submit(null_task()));
  }
  session.run();
  ASSERT_EQ(a.backend->submitted, uids_a);
  ASSERT_EQ(b.backend->submitted, uids_b);

  // Each side's uids are foreign to the other: the seam ignores them and
  // the API refuses them.
  for (auto [own, other] : {std::pair{&a, &b}, std::pair{&b, &a}}) {
    for (const auto& uid : other->backend->submitted) {
      own->backend->start(uid);
      own->backend->complete(uid);
      EXPECT_FALSE(own->tmgr->cancel(uid)) << uid;
      EXPECT_FALSE(own->agent->cancel(uid)) << uid;
      EXPECT_THROW((void)own->tmgr->task(uid), util::Error) << uid;
    }
  }
  session.run();
  for (const auto& uid : uids_a) {
    EXPECT_EQ(a.tmgr->task(uid).state(), TaskState::kExecutorPending);
  }
  for (const auto& uid : uids_b) {
    EXPECT_EQ(b.tmgr->task(uid).state(), TaskState::kExecutorPending);
  }
  EXPECT_EQ(a.agent->inflight(), 5u);
  EXPECT_EQ(b.agent->inflight(), 5u);

  a.backend->finish_all();
  b.backend->finish_all();
  session.run();
  for (auto* stack : {&a, &b}) {
    std::vector<std::string> visited;
    stack->tmgr->for_each_task([&visited](const Task& task) {
      EXPECT_EQ(task.state(), TaskState::kDone) << task.uid();
      visited.push_back(task.uid());
    });
    EXPECT_EQ(visited, stack == &a ? uids_a : uids_b);
    EXPECT_EQ(stack->agent->inflight(), 0u);
  }
}

TEST(TaskSlots, TwoPilotsRunTheirOwnTasks) {
  Session session(platform::frontier_spec(), 4, 42);
  PilotManager pmgr(session);
  auto& pa = pmgr.submit({.nodes = 2, .backends = {{"flux", 1}}});
  auto& pb = pmgr.submit({.nodes = 2, .backends = {{"flux", 1}}});
  pa.launch([](bool ok, const std::string&) { EXPECT_TRUE(ok); });
  pb.launch([](bool ok, const std::string&) { EXPECT_TRUE(ok); });
  session.run(240.0);
  TaskManager ta(session, pa.agent());
  TaskManager tb(session, pb.agent());
  std::vector<std::string> uids_a;
  std::vector<std::string> uids_b;
  for (int i = 0; i < 8; ++i) {
    auto desc = null_task();
    desc.duration = 30.0;
    uids_a.push_back(ta.submit(desc));
    uids_b.push_back(tb.submit(std::move(desc)));
  }
  session.run(session.now() + 10.0);  // every task is in flight
  for (const auto& uid : uids_b) {
    EXPECT_FALSE(ta.cancel(uid)) << uid;
    EXPECT_FALSE(pa.agent().cancel(uid)) << uid;
    EXPECT_THROW((void)ta.task(uid), util::Error) << uid;
  }
  for (const auto& uid : uids_a) {
    EXPECT_FALSE(tb.cancel(uid)) << uid;
    EXPECT_FALSE(pb.agent().cancel(uid)) << uid;
    EXPECT_THROW((void)tb.task(uid), util::Error) << uid;
  }
  session.run();
  for (const auto& uid : uids_a) {
    EXPECT_EQ(ta.task(uid).state(), TaskState::kDone) << uid;
  }
  for (const auto& uid : uids_b) {
    EXPECT_EQ(tb.task(uid).state(), TaskState::kDone) << uid;
  }
  EXPECT_EQ(ta.finished(), 8u);
  EXPECT_EQ(tb.finished(), 8u);
}

}  // namespace
}  // namespace flotilla::core
