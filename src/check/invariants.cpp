#include "check/invariants.hpp"

#include <algorithm>
#include <optional>

#include "util/strfmt.hpp"

namespace flotilla::check {

using core::TaskState;

std::string Violation::to_string() const {
  return util::cat("[", invariant, "] t=", time, " ", detail);
}

bool legal_transition(TaskState from, TaskState to) {
  // kFailed / kCanceled are reachable from any non-final state.
  if (core::is_final(from)) return false;
  if (to == TaskState::kFailed || to == TaskState::kCanceled) return true;
  switch (from) {
    case TaskState::kNew:
      return to == TaskState::kTmgrScheduling;
    case TaskState::kTmgrScheduling:
      return to == TaskState::kStagingInput ||
             to == TaskState::kAgentScheduling;
    case TaskState::kStagingInput:
      return to == TaskState::kAgentScheduling;
    case TaskState::kAgentScheduling:
      return to == TaskState::kExecutorPending;
    case TaskState::kExecutorPending:
      // Retry edge: a failed launch re-enters agent scheduling.
      return to == TaskState::kRunning || to == TaskState::kAgentScheduling;
    case TaskState::kRunning:
      return to == TaskState::kStagingOutput || to == TaskState::kDone ||
             to == TaskState::kAgentScheduling;
    case TaskState::kStagingOutput:
      return to == TaskState::kDone;
    case TaskState::kDone:
    case TaskState::kFailed:
    case TaskState::kCanceled:
      return false;
  }
  return false;
}

InvariantMonitor::InvariantMonitor(core::Session& session, Options options)
    : session_(session),
      options_(options),
      index_(session.cluster(), session.cluster().all_nodes()) {
  auto& cluster = session_.cluster();
  baseline_free_cores_.reserve(static_cast<std::size_t>(cluster.size()));
  baseline_free_gpus_.reserve(static_cast<std::size_t>(cluster.size()));
  for (platform::NodeId n = 0; n < cluster.size(); ++n) {
    baseline_free_cores_.push_back(cluster.node(n).free_cores());
    baseline_free_gpus_.push_back(cluster.node(n).free_gpus());
  }
  cluster.add_observer(this);
  session_.engine().set_post_event_hook([this] { post_event(); });
}

InvariantMonitor::~InvariantMonitor() {
  session_.engine().set_post_event_hook({});
  session_.cluster().remove_observer(this);
}

void InvariantMonitor::watch(core::TaskManager& tmgr) {
  tmgr.on_transition(
      [this](const core::Task& task, TaskState from, TaskState to) {
        on_transition(task, from, to);
      });
}

void InvariantMonitor::watch_backends(core::Agent& agent) { agent_ = &agent; }

void InvariantMonitor::add(const std::string& invariant,
                           const std::string& detail) {
  if (violations_.size() >= options_.max_violations) {
    ++suppressed_;
    return;
  }
  violations_.push_back(Violation{invariant, detail, session_.now()});
}

void InvariantMonitor::node_changed(platform::NodeId node) {
  const auto& n = session_.cluster().node(node);
  if (n.free_cores() < 0 || n.free_cores() > n.total_cores() ||
      n.free_gpus() < 0 || n.free_gpus() > n.total_gpus()) {
    add("overcommit",
        util::cat("node ", node, " free=", n.free_cores(), "/",
                  n.total_cores(), " cores, ", n.free_gpus(), "/",
                  n.total_gpus(), " gpus"));
  }
}

void InvariantMonitor::post_event() {
  const sim::Time now = session_.now();
  if (now < last_now_) {
    add("monotonic-time",
        util::cat("virtual time moved backwards: ", last_now_, " -> ", now));
  }
  last_now_ = now;
  ++events_seen_;
  if (options_.coherence_stride > 0 &&
      events_seen_ % static_cast<std::uint64_t>(options_.coherence_stride) ==
          0) {
    check_index_coherence();
  }
}

void InvariantMonitor::check_index_coherence() {
  auto& cluster = session_.cluster();
  const auto range = cluster.all_nodes();

  // Segment maxima vs. ground truth.
  int truth_cores = 0;
  int truth_gpus = 0;
  for (platform::NodeId n = range.first; n < range.end(); ++n) {
    truth_cores = std::max(truth_cores, cluster.node(n).free_cores());
    truth_gpus = std::max(truth_gpus, cluster.node(n).free_gpus());
  }
  if (truth_cores != index_.max_free_cores() ||
      truth_gpus != index_.max_free_gpus()) {
    add("index", util::cat("segment maxima drifted: index=(",
                           index_.max_free_cores(), ",", index_.max_free_gpus(),
                           ") scan=(", truth_cores, ",", truth_gpus, ")"));
    return;  // further probes would only repeat the same drift
  }

  // Identity oracle: indexed lookups must answer exactly like the linear
  // first-fit scan they replaced (the sched subsystem's contract). The
  // whole range is probed, and so is its middle third, whose searches start
  // at an inner leaf and must stop before the end of the range.
  struct Probe {
    int cores;
    int gpus;
  };
  const Probe probes[] = {{1, 0}, {8, 1}, {56, 0}, {1, 1}};
  const platform::NodeRange windows[] = {
      range, {range.first + range.count / 3,
              range.count - 2 * (range.count / 3)}};
  for (const auto& window : windows) {
    auto scan = [&](auto qualifies) -> std::optional<platform::NodeId> {
      for (platform::NodeId n = window.first; n < window.end(); ++n) {
        if (qualifies(cluster.node(n))) return n;
      }
      return std::nullopt;
    };
    auto report = [&](const std::string& query,
                      std::optional<platform::NodeId> got,
                      std::optional<platform::NodeId> truth) {
      add("index",
          util::cat(query, " over [", window.first, ",", window.end(),
                    ") = ", got ? std::to_string(*got) : "none",
                    ", linear scan = ",
                    truth ? std::to_string(*truth) : "none"));
    };
    for (const auto& probe : probes) {
      const auto truth = scan([&](const platform::Node& node) {
        return node.free_cores() >= probe.cores &&
               node.free_gpus() >= probe.gpus;
      });
      const auto got =
          index_.find_fit(window.first, window.end(), probe.cores, probe.gpus);
      if (truth != got) {
        report(util::cat("find_fit(", probe.cores, ",", probe.gpus, ")"), got,
               truth);
      }
    }
    const auto truth_any = scan(
        [](const platform::Node& node) { return node.free_cores() > 0; });
    const auto got_any =
        index_.find_any(window.first, window.end(), true, false);
    if (truth_any != got_any) report("find_any(cores)", got_any, truth_any);
  }
}

void InvariantMonitor::on_transition(const core::Task& task, TaskState from,
                                     TaskState to) {
  auto [it, inserted] = tasks_.try_emplace(task.id());
  auto& record = it->second;
  if (inserted) {
    if (from != TaskState::kNew) {
      add("state-machine",
          util::cat(task.uid(), ": first observed transition leaves ",
                    core::to_string(from), ", expected NEW"));
    }
  } else if (record.last != from) {
    add("state-machine",
        util::cat(task.uid(), ": transition claims from=",
                  core::to_string(from), " but last recorded state is ",
                  core::to_string(record.last)));
  }
  if (!legal_transition(from, to)) {
    add("state-machine",
        util::cat(task.uid(), ": illegal edge ", core::to_string(from), " -> ",
                  core::to_string(to)));
  }
  if (core::is_final(to)) {
    ++record.terminals;
    if (record.terminals > 1) {
      add("liveness", util::cat(task.uid(), ": reached a terminal state ",
                                record.terminals, " times"));
    }
  }
  record.last = to;
}

void InvariantMonitor::finish() {
  if (finished_) return;
  finished_ = true;

  // Conservation: the cluster must be exactly as free as at attach time.
  auto& cluster = session_.cluster();
  std::int64_t leaked_cores = 0;
  std::int64_t leaked_gpus = 0;
  for (platform::NodeId n = 0; n < cluster.size(); ++n) {
    leaked_cores +=
        baseline_free_cores_[static_cast<std::size_t>(n)] -
        cluster.node(n).free_cores();
    leaked_gpus += baseline_free_gpus_[static_cast<std::size_t>(n)] -
                   cluster.node(n).free_gpus();
  }
  if (leaked_cores != 0 || leaked_gpus != 0) {
    add("conservation", util::cat("allocations leaked at drain: ",
                                  leaked_cores, " cores, ", leaked_gpus,
                                  " gpus still held"));
  }

  // Liveness: exactly one terminal state per watched task.
  for (const auto& [id, record] : tasks_) {
    if (record.terminals == 0) {
      add("liveness", util::cat(core::task_uid(id),
                                ": never reached a terminal state (last ",
                                core::to_string(record.last), ")"));
    }
  }

  // Quiescence: no backend may still hold queued or running work.
  if (agent_ != nullptr) {
    for (const auto& name : agent_->backend_names()) {
      auto* backend = agent_->backend(name);
      if (backend != nullptr && !backend->quiescent()) {
        add("quiesce", util::cat("backend ", name,
                                 " not quiescent at drain (inflight=",
                                 backend->inflight(), ")"));
      }
    }
  }

  if (options_.coherence_stride > 0) check_index_coherence();

  if (suppressed_ > 0) {
    violations_.push_back(
        Violation{"monitor",
                  util::cat(suppressed_, " further violations suppressed"),
                  session_.now()});
  }
}

}  // namespace flotilla::check
