// Golden regression: a fixed scenario's metrics are pinned exactly.
//
// The DES is deterministic (seeded streams, tie-breaking by insertion
// order), so these values change only when the model changes. A failure
// here is a behavioural diff: inspect it, and update the goldens only if
// the change is intended (and note it in EXPERIMENTS.md if it moves any
// paper-facing number).
#include <gtest/gtest.h>

#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "check/runner.hpp"
#include "core/flotilla.hpp"

namespace flotilla::core {
namespace {

std::string fingerprint(const std::string& backend) {
  Session session(platform::frontier_spec(), 4, 12345);
  PilotManager pmgr(session);
  PilotDescription desc;
  desc.nodes = 4;
  if (backend == "flux") {
    desc.backends = {{.type = "flux", .partitions = 2}};
  } else if (backend == "hybrid") {
    desc.backends = {{.type = "flux", .partitions = 1, .nodes = 2},
                     {.type = "dragon", .nodes = 2}};
  } else {
    desc.backends = {{backend}};
  }
  auto& pilot = pmgr.submit(std::move(desc));
  pilot.launch([](bool ok, const std::string&) { ASSERT_TRUE(ok); });
  session.run(240.0);
  TaskManager tmgr(session, pilot.agent());
  tmgr.on_complete([](const Task&) {});
  for (int i = 0; i < 150; ++i) {
    TaskDescription task;
    task.demand.cores = 1 + (i % 4);
    task.duration = 15.0 + (i % 7);
    task.fail_probability = 0.05;
    task.max_retries = 2;
    tmgr.submit(std::move(task));
  }
  session.run();
  const auto& metrics = pilot.agent().profiler().metrics();
  std::ostringstream os;
  os << std::fixed << std::setprecision(3) << metrics.tasks_done() << '/'
     << metrics.tasks_failed() << '/' << metrics.tasks_retried() << ' '
     << metrics.makespan() << ' '
     << metrics.core_utilization(pilot.total_cores()) << ' '
     << metrics.peak_concurrency();
  return os.str();
}

TEST(Golden, SrunScenarioPinned) {
  EXPECT_EQ(fingerprint("srun"), "150/0/7 69.274 0.454 93.000");
}

TEST(Golden, FluxScenarioPinned) {
  EXPECT_EQ(fingerprint("flux"), "150/0/6 53.545 0.585 96.000");
}

TEST(Golden, DragonScenarioPinned) {
  EXPECT_EQ(fingerprint("dragon"), "150/0/10 61.814 0.517 91.000");
}

TEST(Golden, PrrteScenarioPinned) {
  EXPECT_EQ(fingerprint("prrte"), "150/0/12 59.059 0.545 91.000");
}

TEST(Golden, HybridScenarioPinned) {
  EXPECT_EQ(fingerprint("hybrid"), "150/0/8 94.378 0.334 48.000");
}

// Crash-path goldens: a broker/runtime/DVM crash while the crashed
// backend holds running and queued tasks, through the fuzz harness's
// fault injection. Pins the run fingerprint (trace CSV plus every task's
// final record) and the terminal counts. The constants were computed at
// the commit before each backend's crash path was folded into crash()
// (the sharded-hop version), so they prove the fold changed nothing.
std::string crash_fingerprint(std::vector<BackendSpec> backends,
                              const std::string& target, int index) {
  check::ScenarioSpec spec;
  spec.seed = 777;
  spec.nodes = 4;
  spec.backends = std::move(backends);
  spec.workload = "sleep";
  spec.tasks = 64;
  spec.duration = 6.0;
  spec.cores = 8;
  check::FaultSpec crash;
  crash.kind = check::FaultSpec::Kind::kCrash;
  crash.time = 3.0;
  crash.backend = target;
  crash.index = index;
  spec.faults = {crash};
  const check::RunResult result = check::run_scenario(spec);
  EXPECT_TRUE(result.ok()) << result.violations.front().to_string();
  // The crash must hit work in flight: with no retries, the crashed
  // backend's tasks end failed.
  EXPECT_GT(result.failed, 0u);
  std::ostringstream os;
  os << result.done << '/' << result.failed << '/' << result.canceled << ' '
     << result.fingerprint;
  return os.str();
}

TEST(Golden, CrashFaultScenariosPinned) {
  EXPECT_EQ(crash_fingerprint({{.type = "flux", .partitions = 2}}, "flux", 1),
            "32/32/0 11728427223803802077");
  EXPECT_EQ(crash_fingerprint({{.type = "dragon", .partitions = 2}}, "dragon",
                              0),
            "32/32/0 10648939564818906353");
  EXPECT_EQ(crash_fingerprint({{.type = "prrte", .nodes = 2},
                               {.type = "srun", .nodes = 2}},
                              "prrte", 0),
            "50/14/0 2693897272471292672");
}

}  // namespace
}  // namespace flotilla::core
