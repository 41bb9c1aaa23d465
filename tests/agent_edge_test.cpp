// Agent routing edge cases.
#include <gtest/gtest.h>

#include <string>

#include "core/flotilla.hpp"

namespace flotilla {
namespace {

struct AgentFixture {
  core::Session session{platform::frontier_spec(), 4, 42};
  core::PilotManager pmgr{session};
  core::Pilot* pilot = nullptr;
  std::unique_ptr<core::TaskManager> tmgr;

  AgentFixture() {
    pilot = &pmgr.submit(
        {.nodes = 4,
         .backends = {{.type = "flux", .partitions = 1, .nodes = 2},
                      {.type = "dragon", .nodes = 2}}});
    pilot->launch([](bool ok, const std::string&) { EXPECT_TRUE(ok); });
    session.run(240.0);
    tmgr = std::make_unique<core::TaskManager>(session, pilot->agent());
  }
};

TEST(AgentEdge, TypoHintFallsBackToCompatibleBackend) {
  AgentFixture fx;
  std::string backend_used;
  core::TaskState final_state = core::TaskState::kNew;
  fx.tmgr->on_complete([&](const core::Task& task) {
    backend_used = task.backend();
    final_state = task.state();
  });
  core::TaskDescription desc;
  desc.demand.cores = 1;
  desc.backend_hint = "fluxx";  // typo: no such backend
  fx.tmgr->submit(std::move(desc));
  fx.session.run();
  EXPECT_EQ(final_state, core::TaskState::kDone);
  EXPECT_EQ(backend_used, "flux");  // first compatible wins
}

TEST(AgentEdge, SubmitBurstDuringBackendCrashIsFullyAccounted) {
  AgentFixture fx;
  int finals = 0;
  fx.tmgr->on_complete([&](const core::Task&) { ++finals; });
  // Crash dragon right after a function-task burst heads its way.
  for (int i = 0; i < 100; ++i) {
    core::TaskDescription desc;
    desc.demand.cores = 1;
    desc.duration = 50.0;
    desc.modality = platform::TaskModality::kFunction;
    desc.max_retries = 1;
    fx.tmgr->submit(std::move(desc));
  }
  fx.session.run(fx.session.now() + 10.0);
  fx.pilot->agent().backend("dragon")->shutdown();
  fx.session.run();
  // Every task reached a final state exactly once (no lost or duplicated
  // completions), even though the only function-capable backend died.
  EXPECT_EQ(finals, 100);
  EXPECT_EQ(fx.tmgr->finished(), 100u);
}

TEST(AgentEdge, ZeroCoreTaskRunsToCompletion) {
  AgentFixture fx;
  core::TaskState final_state = core::TaskState::kNew;
  fx.tmgr->on_complete(
      [&](const core::Task& task) { final_state = task.state(); });
  core::TaskDescription desc;
  desc.demand.cores = 0;  // pure control task
  desc.duration = 1.0;
  fx.tmgr->submit(std::move(desc));
  fx.session.run();
  EXPECT_EQ(final_state, core::TaskState::kDone);
}

}  // namespace
}  // namespace flotilla
