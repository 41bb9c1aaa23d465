#include "flux/instance.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

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

void Instance::emit(JobEventKind kind, const std::string& job_id,
                    bool success, std::string_view note, sim::Time started,
                    sim::Time finished) {
  if (!event_handler_) return;
  event_handler_(JobEvent{kind, job_id, success, note, started, finished});
}

void Instance::submit(Job job) {
  FLOT_CHECK(ready_, "submit to flux instance ", name_, " before bootstrap");
  if (!healthy_) {
    emit(JobEventKind::kException, job.id, false, "broker unreachable");
    return;
  }
  const Slot slot = jobs_.claim(std::move(job));
  const double cost = rng_.lognormal_mean_cv(cal_.ingest_cost, cal_.jitter_cv);
  rank0_.submit(cost, [this, slot] {
    const Job& ingested = jobs_[slot];
    if (!healthy_) {
      emit(JobEventKind::kException, ingested.id, false, "broker crashed");
      jobs_.release(slot);
      return;
    }
    // Priority queue with FIFO tie-breaking (Flux urgency semantics) —
    // the shared BackfillPolicy keeps pending_ sorted by non-increasing
    // priority with a binary-search insertion point.
    pending_.push(sched::QueueEntry{slot, ingested.priority});
    emit(JobEventKind::kSubmit, ingested.id);
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

bool Instance::try_schedule_gang(const std::string& gang) {
  // Collect the gang's members; schedule only once all of them arrived.
  std::vector<Slot> members;
  int declared_size = 0;
  for (const auto& entry : pending_.entries()) {
    const Job& job = jobs_[entry.slot];
    if (job.gang != gang) continue;
    members.push_back(entry.slot);
    declared_size = std::max(declared_size, job.gang_size);
  }
  if (members.empty() ||
      static_cast<int>(members.size()) < declared_size) {
    return false;
  }
  // Atomic all-or-nothing placement (§2's co-scheduled resources).
  std::vector<platform::Placement> placements;
  placements.reserve(members.size());
  for (const Slot member : members) {
    auto placement = placer_.place(jobs_[member].demand);
    if (!placement) {
      for (const auto& held : placements) placer_.release(held);
      return false;
    }
    placements.push_back(std::move(*placement));
  }
  // Allocated from here on, so a crash mid-spawn still reaps them.
  for (std::size_t m = 0; m < members.size(); ++m) {
    Job& job = jobs_[members[m]];
    job.placement = std::move(placements[m]);
    job.state = JobState::kSched;
  }
  pending_.remove_if([this, &gang](const sched::QueueEntry& entry) {
    return jobs_[entry.slot].gang == gang;
  });
  for (const Slot member : members) {
    emit(JobEventKind::kAlloc, jobs_[member].id);
  }
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
    const Slot slot = pending_.at(i).slot;
    Job& job = jobs_[slot];
    if (!job.gang.empty()) {
      if (std::find(failed_gangs.begin(), failed_gangs.end(), job.gang) !=
          failed_gangs.end()) {
        continue;
      }
      if (try_schedule_gang(job.gang)) {
        kick_scheduler();
        return;
      }
      failed_gangs.push_back(job.gang);
      continue;
    }
    auto placement = placer_.place(job.demand);
    if (!placement) continue;
    pending_.take(i);
    job.placement = std::move(*placement);
    // Allocated from here on, so a crash mid-spawn still reaps it.
    job.state = JobState::kSched;
    emit(JobEventKind::kAlloc, job.id);
    dispatch(slot);
    kick_scheduler();  // next decision costs another rank-0 pass
    return;
  }
  // Nothing fits: sleep until a completion or submission kicks us again.
}

void Instance::dispatch_gang(std::vector<Slot> members) {
  // Spawn every member's shims; no member starts until the whole gang is
  // up, then all start together after one shared wireup across the gang's
  // node span.
  std::size_t total_nodes = 0;
  for (const Slot member : members) {
    total_nodes += jobs_[member].placement.slices.size();
  }
  const double wireup = rng_.lognormal_mean_cv(
      cal_.mpi_wireup_base +
          cal_.mpi_wireup_per_node * static_cast<double>(total_nodes),
      cal_.jitter_cv);
  for (const Slot member : members) add_spawns(jobs_[member]);
  spawns_.launch([this, members = std::move(members), wireup]() mutable {
    engine_.in(wireup, [this, members = std::move(members)] {
      for (const Slot member : members) job_started(member);
    });
  });
}

void Instance::dispatch(Slot slot) {
  // Fork/exec the job shim on every target node; the job starts when the
  // slowest node is up. Each node's exec broker spawns serially. Multi-node
  // jobs additionally pay Flux's broker-native PMI wireup (§3.1's fast
  // path for tightly coupled tasks).
  const Job& job = jobs_[slot];
  const auto job_nodes = job.placement.slices.size();
  double wireup = 0.0;
  if (job_nodes > 1) {
    wireup = rng_.lognormal_mean_cv(
        cal_.mpi_wireup_base +
            cal_.mpi_wireup_per_node * static_cast<double>(job_nodes),
        cal_.jitter_cv);
  }
  add_spawns(job);
  spawns_.launch([this, slot, wireup] {
    if (wireup > 0.0) {
      engine_.in(wireup, [this, slot] { job_started(slot); });
    } else {
      job_started(slot);
    }
  });
}

void Instance::add_spawns(const Job& job) {
  if (job.placement.slices.empty()) {
    // Zero-demand (null) job: still pays one spawn on rank 0's node.
    spawns_.add(*exec_.front(),
                rng_.lognormal_mean_cv(cal_.exec_spawn, cal_.jitter_cv));
    return;
  }
  for (const auto& slice : job.placement.slices) {
    const auto local =
        static_cast<std::size_t>(slice.node - partition_.first);
    FLOT_CHECK(local < exec_.size(), "slice outside partition: node ",
               slice.node);
    spawns_.add(*exec_[local],
                rng_.lognormal_mean_cv(cal_.exec_spawn, cal_.jitter_cv));
  }
}

void Instance::job_started(Slot slot) {
  Job& job = jobs_[slot];
  // A broker crash while the shim was spawning reaped the job.
  if (job.state != JobState::kSched) return;
  job.state = JobState::kRun;
  const sim::Time started = engine_.now();
  ++running_;
  emit(JobEventKind::kStart, job.id, true, {}, started);
  engine_.in(job.duration,
             [this, slot, started] { job_finished(slot, started); });
}

void Instance::job_finished(Slot slot, sim::Time started) {
  Job& job = jobs_[slot];
  if (job.state != JobState::kRun) return;  // crashed meanwhile
  job.state = JobState::kCleanup;
  const sim::Time finished = engine_.now();
  const bool failed = job.fail_probability > 0.0 &&
                      rng_.bernoulli(job.fail_probability);
  // The completion event is processed by rank 0 before resources free and
  // the scheduler is kicked — completions compete with ingest/sched for the
  // broker, which is the instance's steady-state throughput limit.
  const double cost = rng_.lognormal_mean_cv(cal_.event_cost, cal_.jitter_cv);
  rank0_.submit(cost, [this, slot, failed, started, finished] {
    Job& done = jobs_[slot];
    if (done.state != JobState::kCleanup) return;  // crash already reaped it
    placer_.release(done.placement);
    done.state = JobState::kInactive;
    FLOT_CHECK(running_ > 0, "completion without running job");
    --running_;
    ++completed_;
    emit(JobEventKind::kFinish, done.id, !failed,
         failed ? "job exited with non-zero status" : "", started, finished);
    jobs_.release(slot);
    kick_scheduler();
  });
}

void Instance::crash(const std::string& reason) {
  if (!healthy_) return;
  healthy_ = false;
  // Queued jobs raise exceptions, in queue order.
  for (const auto& entry : pending_.drain()) {
    Job& job = jobs_[entry.slot];
    job.state = JobState::kInactive;
    emit(JobEventKind::kException, job.id, false, reason);
  }
  // Allocated jobs die with the broker. Resources are released here so the
  // pilot can reuse the nodes after failover; their slots stay claimed, so
  // the jobs' pending spawn, finish and completion events find them
  // inactive and do nothing. In uid order, so the exception-event sequence
  // is reproducible across runs.
  const auto allocated = [](const Job& job) {
    return job.state == JobState::kSched || job.state == JobState::kRun ||
           job.state == JobState::kCleanup;
  };
  const auto uid = [](const Job& job) -> const std::string& { return job.id; };
  for (const Slot slot : jobs_.sorted_slots(allocated, uid)) {
    Job& job = jobs_[slot];
    job.state = JobState::kInactive;
    placer_.release(job.placement);
    job.placement.slices.clear();
    emit(JobEventKind::kException, job.id, false, reason);
  }
  running_ = 0;
  // Instance-level exception so RP can trigger failover promptly.
  static const std::string kInstance;
  emit(JobEventKind::kException, kInstance, false, reason);
}

}  // namespace flotilla::flux
