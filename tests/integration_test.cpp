// Full-system integration tests: everything at once — a hybrid
// four-backend pilot, services, staged data, an adaptive workflow with
// heterogeneous tasks, failure injection, mid-run faults, the timeline
// sampler and the session report.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analytics/session_report.hpp"
#include "analytics/timeline.hpp"
#include "core/flotilla.hpp"
#include "core/service.hpp"
#include "flux/flux_backend.hpp"
#include "flux/instance.hpp"
#include "util/strfmt.hpp"

namespace flotilla {
namespace {

TEST(Integration, HybridCampaignWithServicesFaultsAndStaging) {
  core::Session session(platform::frontier_spec(), 32, 2026);
  core::PilotManager pmgr(session);
  auto& pilot = pmgr.submit({
      .nodes = 32,
      .backends = {{.type = "flux", .partitions = 2, .nodes = 16},
                   {.type = "dragon", .partitions = 2, .nodes = 8},
                   {.type = "prrte", .nodes = 8}},
      .router = core::RouterPolicy::kStatic,
  });
  bool ready = false;
  pilot.launch([&](bool ok, const std::string&) { ready = ok; });
  session.run(240.0);
  ASSERT_TRUE(ready);
  ASSERT_EQ(pilot.agent().backend_names(),
            (std::vector<std::string>{"flux", "dragon", "prrte"}));

  core::TaskManager tmgr(session, pilot.agent());
  core::Workflow workflow(tmgr);
  core::ServiceManager services(session, tmgr);

  // A persistent in-memory service gates the analysis stage.
  core::ServiceDescription learner;
  learner.name = "learner";
  learner.demand.cores = 4;
  learner.demand.gpus = 4;
  learner.lifetime = 5000.0;
  learner.startup_delay = 10.0;
  learner.modality = platform::TaskModality::kFunction;  // runs on dragon
  services.start(learner);

  // Simulation ensemble: executables with staged inputs and flaky nodes.
  std::vector<core::TaskDescription> sims;
  for (int i = 0; i < 60; ++i) {
    core::TaskDescription sim;
    sim.name = util::cat("sim.", i);
    sim.demand.cores = 14;
    sim.duration = 120.0;
    sim.input_mb = 160.0;
    sim.output_mb = 320.0;
    sim.fail_probability = 0.1;
    sim.max_retries = 3;
    sims.push_back(std::move(sim));
  }
  workflow.add_stage("simulate", std::move(sims));

  // MPI scoring after the ensemble (tightly coupled, multi-node).
  std::vector<core::TaskDescription> scoring;
  for (int i = 0; i < 4; ++i) {
    core::TaskDescription score;
    score.name = util::cat("score.", i);
    score.demand.cores = 112;
    score.demand.cores_per_node = 56;
    score.duration = 90.0;
    score.max_retries = 2;
    scoring.push_back(std::move(score));
  }
  workflow.add_stage("score", std::move(scoring), {"simulate"});

  // Inference burst (functions) after scoring.
  std::vector<core::TaskDescription> inference;
  for (int i = 0; i < 200; ++i) {
    core::TaskDescription infer;
    infer.name = util::cat("infer.", i);
    infer.modality = platform::TaskModality::kFunction;
    infer.demand.cores = 1;
    infer.duration = 3.0;
    inference.push_back(std::move(infer));
  }
  workflow.add_stage("analyze", std::move(inference), {"score"});

  // Timeline sampling for the whole run.
  const auto& metrics = pilot.agent().profiler().metrics();
  analytics::Timeline timeline(session.engine(), metrics, 30.0);
  bool drained = false;
  workflow.on_drained([&] { drained = true; });
  timeline.start([&] { return !drained; });

  // The workflow starts once the learner service is up; one flux broker
  // dies mid-ensemble.
  services.when_ready("learner", [&] { workflow.start(); });
  session.run(session.now() + 120.0);
  auto* fluxb =
      dynamic_cast<flux::FluxBackend*>(pilot.agent().backend("flux"));
  ASSERT_NE(fluxb, nullptr);
  fluxb->crash_instance(0, "integration-test fault");
  session.run();

  // --- outcome checks ---------------------------------------------------
  EXPECT_TRUE(drained);
  EXPECT_EQ(workflow.stages_completed(), 3u);
  // Everything recovered through retries/failover despite the crash and
  // the 10% failure injection.
  EXPECT_EQ(metrics.tasks_done(), 60u + 4u + 200u + 1u /*service*/);
  EXPECT_EQ(metrics.tasks_failed(), 0u);
  EXPECT_GT(metrics.tasks_retried(), 0u);

  // All resources returned.
  EXPECT_EQ(session.cluster().free_cores({0, 32}), 32 * 56);
  EXPECT_EQ(session.cluster().free_gpus({0, 32}), 32 * 8);

  // Timeline saw real concurrency and then the drain.
  double peak = 0;
  for (const auto& s : timeline.samples()) {
    peak = std::max(peak, s.tasks_running);
  }
  EXPECT_GT(peak, 10.0);
  std::ostringstream csv;
  timeline.write_csv(csv);
  EXPECT_NE(csv.str().find("tasks_running"), std::string::npos);

  // Session report covers every finished task with sane phases.
  analytics::SessionReport report;
  tmgr.for_each_task([&](const core::Task& task) { report.add(task); });
  EXPECT_EQ(report.tasks(), 265u);
  EXPECT_GT(report.mean_execution(), 1.0);
}

TEST(Integration, FluxEventlogRecordsLifecOrder) {
  sim::Engine engine;
  platform::Cluster cluster(platform::frontier_spec(), 2);
  flux::Instance instance("flux.0", engine, cluster, {0, 2},
                          platform::frontier_calibration().flux, 3);
  // Each job's eventlog, as the event bus reports it.
  std::map<std::string, std::vector<std::pair<sim::Time, flux::JobEventKind>>>
      logs;
  instance.on_event([&](const flux::JobEvent& event) {
    logs[event.job_id].emplace_back(engine.now(), event.kind);
  });
  instance.bootstrap([&] {
    flux::Job job;
    job.id = "job.0";
    job.demand.cores = 8;
    job.duration = 25.0;
    instance.submit(std::move(job));
  });
  engine.run();
  const auto& log = logs["job.0"];
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0].second, flux::JobEventKind::kSubmit);
  EXPECT_EQ(log[1].second, flux::JobEventKind::kAlloc);
  EXPECT_EQ(log[2].second, flux::JobEventKind::kStart);
  EXPECT_EQ(log[3].second, flux::JobEventKind::kFinish);
  for (std::size_t i = 1; i < log.size(); ++i) {
    EXPECT_GE(log[i].first, log[i - 1].first);
  }
  EXPECT_NEAR(log[3].first - log[2].first, 25.0, 0.5);
  EXPECT_EQ(logs.count("nope"), 0u);
  EXPECT_EQ(logs.size(), 1u);
}

TEST(Integration, FluxInstancesAndSrunTasksShareTheCeiling) {
  // §4.1.3: "because each Flux instance is launched via srun, this
  // experiment is subject to Frontier's limit of 112 concurrent srun
  // invocations". A pilot mixing flux partitions and an srun backend must
  // draw both from one allocation-wide ceiling.
  auto spec = platform::frontier_spec();
  spec.srun_concurrency_ceiling = 20;  // tiny ceiling to force contention
  core::Session session(spec, 8, 42);
  core::PilotManager pmgr(session);
  auto& pilot = pmgr.submit(
      {.nodes = 8,
       .backends = {{.type = "flux", .partitions = 4, .nodes = 4},
                    {.type = "srun", .nodes = 4}}});
  bool ready = false;
  pilot.launch([&](bool ok, const std::string&) { ready = ok; });
  session.run(240.0);
  ASSERT_TRUE(ready);
  // 4 flux instances hold 4 of the 20 slots for their lifetime.
  EXPECT_EQ(pilot.srun_ceiling().in_use(), 4);

  core::TaskManager tmgr(session, pilot.agent());
  tmgr.on_complete([](const core::Task&) {});
  // srun tasks can use at most the remaining 16 slots concurrently.
  for (int i = 0; i < 40; ++i) {
    core::TaskDescription desc;
    desc.demand.cores = 1;
    desc.duration = 100.0;
    desc.backend_hint = "srun";
    tmgr.submit(std::move(desc));
  }
  session.run(session.now() + 150.0);
  const auto& metrics = pilot.agent().profiler().metrics();
  EXPECT_LE(metrics.peak_concurrency(), 16.0);  // 20 - 4 instance slots
  session.run();
  EXPECT_EQ(metrics.tasks_done(), 40u);
}

}  // namespace
}  // namespace flotilla
