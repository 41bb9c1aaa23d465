// A single Flux instance over a node partition.
//
// Structure mirrors the real system (§3.2.1):
//  - one broker per node; rank 0 hosts job-ingest, the scheduler (fluxion)
//    and the job-event bus. Ingest, scheduling decisions and completion
//    events all serialize on rank 0 — this is the queueing bottleneck that
//    caps a single instance's throughput near the paper's 744 tasks/s peak.
//  - the scheduler runs FCFS with backfill: the queue head is tried first;
//    if it does not fit, up to `backfill_depth` younger jobs are scanned for
//    one that does.
//  - each decision's cost grows with the partition's resource graph
//    (fluxion match cost), which bends single-instance throughput back down
//    on very large partitions (Fig 6: 256 nodes beats 1024 at 1 instance).
//  - placement dispatches to the target nodes' exec brokers, which fork the
//    job shim serially per node (~35 ms/task): small instances are
//    spawn-limited (~28 tasks/s on one node, Fig 5b).
//  - completions free resources and *kick* the scheduler via events; there
//    is no polling anywhere.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "flux/job.hpp"
#include "obs/tracer.hpp"
#include "platform/calibration.hpp"
#include "platform/cluster.hpp"
#include "sched/placer.hpp"
#include "sched/queue.hpp"
#include "sim/random.hpp"
#include "sim/server.hpp"

namespace flotilla::flux {

class Instance {
 public:
  using EventHandler = std::function<void(const JobEvent&)>;

  Instance(std::string name, sim::Engine& engine, platform::Cluster& cluster,
           platform::NodeRange partition, const platform::FluxCalibration& cal,
           std::uint64_t seed);

  const std::string& name() const { return name_; }
  platform::NodeRange partition() const { return partition_; }

  // Bootstraps the broker overlay; `ready` fires once jobs are accepted.
  // The reported overhead (Fig 7) is the time from this call to readiness.
  void bootstrap(std::function<void()> ready);
  bool ready() const { return ready_; }
  sim::Time bootstrap_duration() const { return bootstrap_duration_; }

  // job-ingest RPC (asynchronous; events report progress).
  void submit(Job job);

  // Subscribes to the job event bus. One subscriber (the RP Flux executor).
  void on_event(EventHandler handler) { event_handler_ = std::move(handler); }

  // Simulates a broker crash: running and queued jobs raise exceptions,
  // further submissions are rejected via exception events.
  void crash(const std::string& reason);
  bool healthy() const { return healthy_; }

  std::size_t queue_depth() const { return pending_.size(); }
  std::size_t running_jobs() const { return running_; }
  std::uint64_t jobs_completed() const { return completed_; }

  // Scheduler tuning (white-box test access).
  int backfill_depth = 64;

  // Swaps the fluxion matcher's placement policy (default first-fit).
  void set_placement_policy(sched::PlacementPolicyKind kind) {
    placer_.set_policy(kind);
  }

  // Attaches structured tracing (src/obs): bootstrap span, pending-queue
  // wait spans and placement-attempt instants, all under this instance's
  // name as the component.
  void set_trace(obs::TraceHandle handle) {
    obs_trace_ = handle;
    pending_.set_trace(handle, name_);
    placer_.set_trace(handle, name_);
  }

  // When enabled, each job's lifecycle events are appended to a per-job
  // eventlog (Flux's KVS eventlog equivalent) retrievable post mortem.
  // Off by default: paper-scale runs submit hundreds of thousands of jobs.
  bool record_eventlogs = false;
  using Eventlog = std::vector<std::pair<sim::Time, std::string>>;
  // The recorded eventlog of a job; empty if unknown or recording was off.
  const Eventlog& eventlog(const std::string& job_id) const;

 private:
  void emit(JobEventKind kind, const std::string& job_id, bool success = true,
            const std::string& note = "", sim::Time started = 0.0,
            sim::Time finished = 0.0);
  void kick_scheduler();
  void run_sched_decision();
  // By value: the tag outlives the queue entries remove_if destroys.
  bool try_schedule_gang(std::string gang);
  void dispatch(std::shared_ptr<Job> job);
  void dispatch_gang(std::vector<std::shared_ptr<Job>> members);
  void job_started(std::shared_ptr<Job> job);
  void job_finished(std::shared_ptr<Job> job);
  double sched_decision_cost();

  std::string name_;
  sim::Engine& engine_;
  platform::Cluster& cluster_;
  platform::NodeRange partition_;
  platform::FluxCalibration cal_;
  sim::RngStream rng_;
  sim::Server rank0_;  // ingest + sched + event handling serialize here
  std::vector<std::unique_ptr<sim::Server>> exec_;  // per-node spawn servers
  // Fluxion equivalent: priority queue with bounded backfill, and a fixed
  // scan origin (the matcher rescans the partition from the top).
  sched::TaskQueue pending_;
  sched::BackfillPolicy* backfill_;  // owned by pending_
  sched::Placer placer_;
  std::unordered_map<std::string, std::shared_ptr<Job>> active_;
  std::unordered_map<std::string, Eventlog> eventlogs_;
  EventHandler event_handler_;
  obs::TraceHandle obs_trace_;
  bool ready_ = false;
  bool bootstrap_started_ = false;
  bool healthy_ = true;
  bool sched_busy_ = false;
  std::size_t running_ = 0;
  std::uint64_t completed_ = 0;
  sim::Time bootstrap_requested_ = 0.0;
  sim::Time bootstrap_duration_ = 0.0;
};

}  // namespace flotilla::flux
