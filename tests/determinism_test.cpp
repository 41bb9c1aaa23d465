// Session-level determinism: a full pilot run is bit-identical for a given
// seed and diverges across seeds — the property that makes experiment
// sweeps and golden regressions trustworthy.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/flotilla.hpp"
#include "obs/export.hpp"

namespace flotilla::core {
namespace {

struct Fingerprint {
  double makespan = 0.0;
  double avg_tput = 0.0;
  double util = 0.0;
  std::uint64_t done = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

class SessionDeterminism : public ::testing::TestWithParam<std::string> {};

Fingerprint run_session(const std::string& backend, std::uint64_t seed) {
  Session session(platform::frontier_spec(), 4, seed);
  PilotManager pmgr(session);
  PilotDescription desc;
  desc.nodes = 4;
  if (backend == "flux") {
    desc.backends = {{.type = "flux", .partitions = 2}};
  } else {
    desc.backends = {{backend}};
  }
  auto& pilot = pmgr.submit(std::move(desc));
  pilot.launch([](bool ok, const std::string&) { EXPECT_TRUE(ok); });
  session.run(240.0);
  TaskManager tmgr(session, pilot.agent());
  tmgr.on_complete([](const Task&) {});
  for (int i = 0; i < 300; ++i) {
    TaskDescription task;
    task.demand.cores = 1;
    task.duration = 20.0;
    task.fail_probability = 0.1;
    task.max_retries = 2;
    tmgr.submit(std::move(task));
  }
  session.run();
  const auto& metrics = pilot.agent().profiler().metrics();
  return Fingerprint{metrics.makespan(), metrics.avg_throughput(),
                     metrics.core_utilization(pilot.total_cores()),
                     metrics.tasks_done()};
}

TEST_P(SessionDeterminism, IdenticalForSameSeed) {
  const auto a = run_session(GetParam(), 42);
  const auto b = run_session(GetParam(), 42);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.done + 0, b.done);
}

TEST_P(SessionDeterminism, DivergesAcrossSeeds) {
  const auto a = run_session(GetParam(), 42);
  const auto b = run_session(GetParam(), 43);
  // Jittered service times make exact equality across seeds essentially
  // impossible; makespan is the most sensitive aggregate.
  EXPECT_NE(a.makespan, b.makespan);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, SessionDeterminism,
                         ::testing::Values("srun", "flux", "dragon",
                                           "prrte"),
                         [](const auto& param_info) { return param_info.param; });

// Hybrid (flux+dragon) same-seed trace equality: the aggregate fingerprint
// above can mask reordered events, so this test compares the *entire*
// obs record stream (per-task states included), .prof line for .prof line,
// and its running digest across two in-process runs of the paper's mixed
// executable/function configuration.
TEST(SessionDeterminism, HybridFluxDragonTraceIsBitIdentical) {
  struct Trace {
    std::string prof;
    std::uint64_t digest = 0;
  };
  auto trace_of = [] {
    Session session(platform::frontier_spec(), 4, 42);
    const obs::Tracer& tracer = session.enable_tracing();
    PilotManager pmgr(session);
    PilotDescription desc;
    desc.nodes = 4;
    desc.backends = {{.type = "flux", .partitions = 2, .nodes = 2},
                     {.type = "dragon", .nodes = 2}};
    desc.trace_tasks = true;
    auto& pilot = pmgr.submit(std::move(desc));
    pilot.launch([](bool ok, const std::string&) { EXPECT_TRUE(ok); });
    session.run(240.0);
    TaskManager tmgr(session, pilot.agent());
    tmgr.on_complete([](const Task&) {});
    // Half executables (flux lane), half functions (dragon lane).
    for (int i = 0; i < 200; ++i) {
      TaskDescription task;
      task.demand.cores = 1;
      task.duration = 5.0;
      task.fail_probability = 0.05;
      task.max_retries = 1;
      task.modality = (i % 2 == 0) ? platform::TaskModality::kExecutable
                                   : platform::TaskModality::kFunction;
      tmgr.submit(std::move(task));
    }
    session.run();
    // The export must hold the whole run for the comparison to mean it.
    EXPECT_EQ(tracer.dropped(), 0u);
    std::ostringstream os;
    obs::write_prof(tracer, os);
    return Trace{os.str(), tracer.digest()};
  };
  const auto a = trace_of();
  const auto b = trace_of();
  ASSERT_FALSE(a.prof.empty());
  EXPECT_EQ(a.prof, b.prof);
  EXPECT_EQ(a.digest, b.digest);
}

}  // namespace
}  // namespace flotilla::core
