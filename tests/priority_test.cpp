// Tests for priority (urgency) scheduling and Poisson arrivals.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/flotilla.hpp"
#include "workloads/synthetic.hpp"
#include "workloads/trace_replay.hpp"

namespace flotilla {
namespace {

struct PriorityFixture {
  core::Session session{platform::frontier_spec(), 1, 42};
  core::PilotManager pmgr{session};
  core::Pilot* pilot = nullptr;
  std::unique_ptr<core::TaskManager> tmgr;

  PriorityFixture() {
    pilot = &pmgr.submit({.nodes = 1, .backends = {{"flux", 1}}});
    pilot->launch([](bool ok, const std::string&) { EXPECT_TRUE(ok); });
    session.run(240.0);
    tmgr = std::make_unique<core::TaskManager>(session, pilot->agent());
  }
};

TEST(Priority, UrgentTasksJumpTheQueue) {
  PriorityFixture fx;
  std::vector<std::string> start_order;
  fx.pilot->agent().on_task_start([&](const core::Task& task) {
    start_order.push_back(task.name());
  });
  fx.tmgr->on_complete([](const core::Task&) {});
  // Saturate the node so a queue forms, then submit a low and a high
  // priority task; the high one must start first despite arriving last.
  for (int i = 0; i < 56; ++i) {
    core::TaskDescription filler;
    filler.name = "filler";
    filler.demand.cores = 1;
    filler.duration = 120.0;
    fx.tmgr->submit(std::move(filler));
  }
  core::TaskDescription low;
  low.name = "low";
  low.demand.cores = 56;
  low.duration = 10.0;
  low.priority = 8;
  fx.tmgr->submit(std::move(low));
  core::TaskDescription high;
  high.name = "high";
  high.demand.cores = 56;
  high.duration = 10.0;
  high.priority = 31;
  fx.tmgr->submit(std::move(high));
  fx.session.run();

  long pos_high = -1, pos_low = -1;
  for (std::size_t i = 0; i < start_order.size(); ++i) {
    if (start_order[i] == "high") pos_high = static_cast<long>(i);
    if (start_order[i] == "low") pos_low = static_cast<long>(i);
  }
  ASSERT_GE(pos_high, 0);
  ASSERT_GE(pos_low, 0);
  EXPECT_LT(pos_high, pos_low);
}

// "t<i>", appended: `"t" + std::to_string(i)` trips GCC 12's Release
// -Wrestrict on the insert it inlines.
std::string fifo_name(int i) {
  std::string name = "t";
  name.append(std::to_string(i));
  return name;
}

TEST(Priority, EqualPrioritiesKeepFifoOrder) {
  PriorityFixture fx;
  std::vector<std::string> start_order;
  fx.pilot->agent().on_task_start([&](const core::Task& task) {
    start_order.push_back(task.name());
  });
  fx.tmgr->on_complete([](const core::Task&) {});
  for (int i = 0; i < 20; ++i) {
    core::TaskDescription desc;
    desc.name = fifo_name(i);
    desc.demand.cores = 56;  // strictly serialized
    desc.duration = 5.0;
    fx.tmgr->submit(std::move(desc));
  }
  fx.session.run();
  ASSERT_EQ(start_order.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(start_order[static_cast<size_t>(i)], fifo_name(i));
  }
}

// ------------------------------------------------------- poisson arrivals

TEST(PoissonArrivals, InterArrivalsMatchRate) {
  core::TaskDescription proto;
  proto.demand.cores = 1;
  proto.duration = 1.0;
  const auto entries = workloads::poisson_arrivals(5000, 25.0, proto, 7);
  ASSERT_EQ(entries.size(), 5000u);
  // Arrival times strictly increase; mean inter-arrival ~ 1/25 s.
  double prev = -1.0;
  for (const auto& entry : entries) {
    EXPECT_GT(entry.submit_time, prev);
    prev = entry.submit_time;
  }
  EXPECT_NEAR(entries.back().submit_time, 5000.0 / 25.0, 15.0);
}

TEST(PoissonArrivals, ReplayDrivesOpenArrivalRun) {
  core::Session session(platform::frontier_spec(), 4, 42);
  core::PilotManager pmgr(session);
  auto& pilot = pmgr.submit({.nodes = 4, .backends = {{"dragon"}}});
  pilot.launch([](bool ok, const std::string&) { EXPECT_TRUE(ok); });
  session.run(60.0);
  core::TaskManager tmgr(session, pilot.agent());
  tmgr.on_complete([](const core::Task&) {});

  core::TaskDescription proto;
  proto.demand.cores = 1;
  proto.duration = 2.0;
  proto.modality = platform::TaskModality::kFunction;
  workloads::replay(tmgr,
                    workloads::poisson_arrivals(800, 40.0, proto, 9),
                    session.now());
  session.run();
  const auto& metrics = pilot.agent().profiler().metrics();
  EXPECT_EQ(metrics.tasks_done(), 800u);
  // Open system below capacity: launch rate tracks the arrival rate.
  EXPECT_NEAR(metrics.window_throughput(), 40.0, 6.0);
}

}  // namespace
}  // namespace flotilla
