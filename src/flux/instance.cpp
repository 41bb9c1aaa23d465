#include "flux/instance.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/ordered.hpp"

namespace flotilla::flux {

Instance::Instance(std::string name, sim::Engine& engine,
                   platform::Cluster& cluster, platform::NodeRange partition,
                   const platform::FluxCalibration& cal, std::uint64_t seed)
    : name_(std::move(name)),
      engine_(engine),
      cluster_(cluster),
      partition_(partition),
      cal_(cal),
      rng_(seed, name_),
      rank0_(engine, 1),
      pending_(std::make_unique<sched::BackfillPolicy>(backfill_depth)),
      backfill_(static_cast<sched::BackfillPolicy*>(&pending_.policy())),
      placer_(cluster, partition,
              sched::PlacerOptions{.rotate_cursor = false}) {
  FLOT_CHECK(partition.count >= 1, "flux instance needs at least one node");
  FLOT_CHECK(partition.end() <= cluster.size(),
             "partition exceeds cluster: end=", partition.end());
  exec_.reserve(static_cast<std::size_t>(partition.count));
  for (int i = 0; i < partition.count; ++i) {
    exec_.push_back(
        std::make_unique<sim::Server>(engine, cal.exec_parallel_per_node));
  }
}

void Instance::bootstrap(std::function<void()> ready) {
  FLOT_CHECK(!bootstrap_started_, "instance ", name_,
             " bootstrapped twice");
  bootstrap_started_ = true;
  bootstrap_requested_ = engine_.now();
  obs_trace_.begin(obs::SpanType::kBootstrap, name_, "",
                   static_cast<double>(partition_.count));
  const double duration = rng_.lognormal_mean_cv(
      cal_.bootstrap_base + cal_.bootstrap_per_node * partition_.count,
      cal_.jitter_cv / 2);
  engine_.in(duration, [this, ready = std::move(ready)] {
    ready_ = true;
    bootstrap_duration_ = engine_.now() - bootstrap_requested_;
    obs_trace_.end(obs::SpanType::kBootstrap, name_, "");
    if (ready) ready();
  });
}

const Instance::Eventlog& Instance::eventlog(
    const std::string& job_id) const {
  static const Eventlog kEmpty;
  const auto it = eventlogs_.find(job_id);
  return it == eventlogs_.end() ? kEmpty : it->second;
}

void Instance::emit(JobEventKind kind, const std::string& job_id,
                    bool success, const std::string& note, sim::Time started,
                    sim::Time finished) {
  if (record_eventlogs && !job_id.empty()) {
    const char* name = "?";
    switch (kind) {
      case JobEventKind::kSubmit:
        name = "submit";
        break;
      case JobEventKind::kAlloc:
        name = "alloc";
        break;
      case JobEventKind::kStart:
        name = "start";
        break;
      case JobEventKind::kFinish:
        name = success ? "finish" : "finish(rc!=0)";
        break;
      case JobEventKind::kException:
        name = "exception";
        break;
    }
    eventlogs_[job_id].emplace_back(engine_.now(), name);
  }
  if (!event_handler_) return;
  JobEvent event;
  event.kind = kind;
  event.job_id = job_id;
  event.success = success;
  event.note = note;
  event.started = started;
  event.finished = finished;
  event_handler_(event);
}

void Instance::submit(Job job) {
  FLOT_CHECK(ready_, "submit to flux instance ", name_, " before bootstrap");
  if (!healthy_) {
    emit(JobEventKind::kException, job.id, false, "broker unreachable");
    return;
  }
  job.submitted = engine_.now();
  auto shared = std::make_shared<Job>(std::move(job));
  const double cost = rng_.lognormal_mean_cv(cal_.ingest_cost, cal_.jitter_cv);
  rank0_.submit(cost, [this, shared] {
    if (!healthy_) {
      emit(JobEventKind::kException, shared->id, false, "broker crashed");
      return;
    }
    // Priority queue with FIFO tie-breaking (Flux urgency semantics) —
    // the shared BackfillPolicy keeps pending_ sorted by non-increasing
    // priority with a binary-search insertion point.
    sched::QueueEntry entry;
    entry.id = shared->id;
    entry.priority = shared->priority;
    entry.gang = shared->gang;
    entry.gang_size = shared->gang_size;
    entry.demand = shared->demand;
    entry.payload = shared;
    pending_.push(std::move(entry));
    emit(JobEventKind::kSubmit, shared->id);
    kick_scheduler();
  });
}

double Instance::sched_decision_cost() {
  // Per-decision rank-0 work: fluxion match (grows with the resource
  // graph) plus the rank-0 share of exec coordination (amortizes as the
  // exec service fans out over more brokers).
  const double coord =
      cal_.exec_coord_base / std::sqrt(static_cast<double>(partition_.count));
  return rng_.lognormal_mean_cv(
      cal_.sched_cost + cal_.sched_cost_per_node * partition_.count + coord,
      cal_.jitter_cv);
}

void Instance::kick_scheduler() {
  if (sched_busy_ || pending_.empty() || !healthy_) return;
  sched_busy_ = true;
  rank0_.submit(sched_decision_cost(), [this] { run_sched_decision(); });
}

bool Instance::try_schedule_gang(std::string gang) {
  // Collect the gang's members; schedule only once all of them arrived.
  std::vector<std::shared_ptr<Job>> members;
  int declared_size = 0;
  for (const auto& entry : pending_.entries()) {
    if (entry.gang != gang) continue;
    members.push_back(std::static_pointer_cast<Job>(entry.payload));
    declared_size = std::max(declared_size, entry.gang_size);
  }
  if (members.empty() ||
      static_cast<int>(members.size()) < declared_size) {
    return false;
  }
  // Atomic all-or-nothing placement (§2's co-scheduled resources).
  std::vector<platform::Placement> placements;
  placements.reserve(members.size());
  for (const auto& member : members) {
    auto placement = placer_.place(member->demand);
    if (!placement) {
      for (const auto& held : placements) placer_.release(held);
      return false;
    }
    placements.push_back(std::move(*placement));
  }
  for (std::size_t m = 0; m < members.size(); ++m) {
    members[m]->placement = std::move(placements[m]);
    members[m]->state = JobState::kSched;
    active_.emplace(members[m]->id, members[m]);
  }
  pending_.remove_if(
      [&gang](const sched::QueueEntry& entry) { return entry.gang == gang; });
  for (const auto& member : members) emit(JobEventKind::kAlloc, member->id);
  dispatch_gang(std::move(members));
  return true;
}

void Instance::run_sched_decision() {
  sched_busy_ = false;
  if (!healthy_ || pending_.empty()) return;
  // FCFS with backfill: try the head; if it does not fit, scan up to
  // backfill_depth younger jobs for one that does. Gangs schedule as a
  // unit; a gang that cannot be placed (or is incomplete) is skipped as a
  // whole for this pass.
  backfill_->set_depth(backfill_depth);  // white-box tuning writes through
  const auto scan_limit = pending_.scan_limit();
  std::vector<std::string> failed_gangs;
  for (std::size_t i = 0; i < scan_limit && i < pending_.size(); ++i) {
    const auto& candidate = pending_.at(i);
    if (!candidate.gang.empty()) {
      if (std::find(failed_gangs.begin(), failed_gangs.end(),
                    candidate.gang) != failed_gangs.end()) {
        continue;
      }
      if (try_schedule_gang(candidate.gang)) {
        kick_scheduler();
        return;
      }
      failed_gangs.push_back(candidate.gang);
      continue;
    }
    auto placement = placer_.place(candidate.demand);
    if (!placement) continue;
    auto job = std::static_pointer_cast<Job>(pending_.take(i).payload);
    job->placement = std::move(*placement);
    job->state = JobState::kSched;
    // Tracked from allocation on, so a crash mid-spawn still reaps it.
    active_.emplace(job->id, job);
    emit(JobEventKind::kAlloc, job->id);
    dispatch(std::move(job));
    kick_scheduler();  // next decision costs another rank-0 pass
    return;
  }
  // Nothing fits: sleep until a completion or submission kicks us again.
}

void Instance::dispatch_gang(std::vector<std::shared_ptr<Job>> members) {
  // Spawn every member's shims; no member starts until the whole gang is
  // up, then all start together after one shared wireup across the gang's
  // node span.
  std::size_t total_slices = 0;
  std::size_t total_nodes = 0;
  for (const auto& member : members) {
    total_slices += std::max<std::size_t>(1, member->placement.slices.size());
    total_nodes += member->placement.slices.size();
  }
  const double wireup = rng_.lognormal_mean_cv(
      cal_.mpi_wireup_base +
          cal_.mpi_wireup_per_node * static_cast<double>(total_nodes),
      cal_.jitter_cv);
  auto remaining = std::make_shared<std::size_t>(total_slices);
  auto members_shared =
      std::make_shared<std::vector<std::shared_ptr<Job>>>(std::move(members));
  auto on_slice_up = [this, remaining, members_shared, wireup] {
    if (--*remaining > 0) return;
    engine_.in(wireup, [this, members_shared] {
      for (const auto& member : *members_shared) job_started(member);
    });
  };
  for (const auto& member : *members_shared) {
    if (member->placement.slices.empty()) {
      exec_.front()->submit(
          rng_.lognormal_mean_cv(cal_.exec_spawn, cal_.jitter_cv),
          on_slice_up);
      continue;
    }
    for (const auto& slice : member->placement.slices) {
      const auto local =
          static_cast<std::size_t>(slice.node - partition_.first);
      FLOT_CHECK(local < exec_.size(), "slice outside partition");
      exec_[local]->submit(
          rng_.lognormal_mean_cv(cal_.exec_spawn, cal_.jitter_cv),
          on_slice_up);
    }
  }
}

void Instance::dispatch(std::shared_ptr<Job> job) {
  // Fork/exec the job shim on every target node; the job starts when the
  // slowest node is up. Each node's exec broker spawns serially. Multi-node
  // jobs additionally pay Flux's broker-native PMI wireup (§3.1's fast
  // path for tightly coupled tasks).
  const auto job_nodes = job->placement.slices.size();
  auto remaining =
      std::make_shared<int>(static_cast<int>(job_nodes ? job_nodes : 1));
  double wireup = 0.0;
  if (job_nodes > 1) {
    wireup = rng_.lognormal_mean_cv(
        cal_.mpi_wireup_base +
            cal_.mpi_wireup_per_node * static_cast<double>(job_nodes),
        cal_.jitter_cv);
  }
  auto on_node_ready = [this, job, remaining, wireup] {
    if (--*remaining > 0) return;
    if (wireup > 0.0) {
      engine_.in(wireup, [this, job] { job_started(job); });
    } else {
      job_started(job);
    }
  };
  if (job->placement.slices.empty()) {
    // Zero-demand (null) job: still pays one spawn on rank 0's node.
    exec_.front()->submit(
        rng_.lognormal_mean_cv(cal_.exec_spawn, cal_.jitter_cv),
        on_node_ready);
    return;
  }
  for (const auto& slice : job->placement.slices) {
    const auto local =
        static_cast<std::size_t>(slice.node - partition_.first);
    FLOT_CHECK(local < exec_.size(), "slice outside partition: node ",
               slice.node);
    exec_[local]->submit(
        rng_.lognormal_mean_cv(cal_.exec_spawn, cal_.jitter_cv),
        on_node_ready);
  }
}

void Instance::job_started(std::shared_ptr<Job> job) {
  if (job->state == JobState::kInactive || active_.count(job->id) == 0) {
    return;  // the broker crashed while the shim was spawning
  }
  job->state = JobState::kRun;
  job->started = engine_.now();
  ++running_;
  emit(JobEventKind::kStart, job->id, true, "", job->started);
  engine_.in(job->duration, [this, job] { job_finished(job); });
}

void Instance::job_finished(std::shared_ptr<Job> job) {
  if (job->state != JobState::kRun) return;  // crashed meanwhile
  job->state = JobState::kInactive;
  const sim::Time finished = engine_.now();
  const bool failed = job->fail_probability > 0.0 &&
                      rng_.bernoulli(job->fail_probability);
  // The completion event is processed by rank 0 before resources free and
  // the scheduler is kicked — completions compete with ingest/sched for the
  // broker, which is the instance's steady-state throughput limit.
  const double cost = rng_.lognormal_mean_cv(cal_.event_cost, cal_.jitter_cv);
  rank0_.submit(cost, [this, job, failed, finished] {
    if (active_.erase(job->id) == 0) return;  // crash already reaped it
    placer_.release(job->placement);
    job->placement.slices.clear();
    FLOT_CHECK(running_ > 0, "completion without running job");
    --running_;
    ++completed_;
    emit(JobEventKind::kFinish, job->id, !failed,
         failed ? "job exited with non-zero status" : "", job->started,
         finished);
    kick_scheduler();
  });
}

void Instance::crash(const std::string& reason) {
  if (!healthy_) return;
  healthy_ = false;
  // Queued jobs raise exceptions, in queue order.
  for (auto& entry : pending_.drain()) {
    auto job = std::static_pointer_cast<Job>(entry.payload);
    job->state = JobState::kInactive;
    emit(JobEventKind::kException, job->id, false, reason);
  }
  // Running jobs die with the broker. Resources are released here so the
  // pilot can reuse the nodes after failover; the jobs' pending finish
  // timers become no-ops once removed from the active set. Sorted order so
  // the exception-event sequence is reproducible across runs.
  for (const auto& id : util::sorted_keys(active_)) {
    auto& job = active_.at(id);
    job->state = JobState::kInactive;
    placer_.release(job->placement);
    job->placement.slices.clear();
    emit(JobEventKind::kException, id, false, reason);
  }
  active_.clear();
  running_ = 0;
  // Instance-level exception so RP can trigger failover promptly.
  emit(JobEventKind::kException, "", false, reason);
}

}  // namespace flotilla::flux
