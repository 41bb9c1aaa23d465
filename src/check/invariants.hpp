// InvariantMonitor: machine-checked correctness properties, audited live.
//
// The monitor hooks the three observation points the runtime exposes —
// Cluster::Observer (every allocate/release), the engine's post-event hook
// (between any two events), and the task transition hook (every lifecycle
// edge) — and re-checks, independently of the code under test:
//
//   conservation   every core/GPU allocated is released; the cluster is
//                  exactly as free at drain as it was at attach time
//   overcommit     no node's free count ever leaves [0, total]
//   state-machine  every task transition follows the legal lifecycle
//                  graph; no skipped, duplicate or post-terminal edges
//   liveness       every submitted task reaches exactly one terminal state
//   monotonic-time virtual time never moves backwards between events
//   index          FreeResourceIndex segment maxima and find_any/find_fit
//                  answers, over the whole range and its middle third,
//                  match a ground-truth linear scan (sampled)
//   quiesce        every backend reports quiescent() once the run drains
//
// Violations carry the virtual time and a human-readable detail line; the
// fuzz driver shrinks the scenario around them (src/check/shrinker.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/agent.hpp"
#include "core/session.hpp"
#include "core/task.hpp"
#include "core/task_manager.hpp"
#include "sched/free_index.hpp"

namespace flotilla::check {

struct Violation {
  std::string invariant;  // short tag, e.g. "conservation"
  std::string detail;
  sim::Time time = 0.0;

  std::string to_string() const;
};

class InvariantMonitor : public platform::Cluster::Observer {
 public:
  struct Options {
    // Cross-check the free-resource index against a linear ground-truth
    // scan every `coherence_stride` events (0 disables the check).
    int coherence_stride = 512;
    std::size_t max_violations = 32;
  };

  // Two overloads instead of `Options options = {}`: GCC cannot brace-init
  // a nested class with default member initializers in a default argument.
  explicit InvariantMonitor(core::Session& session)
      : InvariantMonitor(session, Options{}) {}
  InvariantMonitor(core::Session& session, Options options);
  ~InvariantMonitor() override;

  InvariantMonitor(const InvariantMonitor&) = delete;
  InvariantMonitor& operator=(const InvariantMonitor&) = delete;

  // Installs the task transition hook; call before submitting tasks.
  void watch(core::TaskManager& tmgr);
  // Remembers the agent so finish() can probe backend quiescence.
  void watch_backends(core::Agent& agent);

  // End-of-run audit: conservation, liveness, backend quiescence. Call
  // once, after the event queue drains.
  void finish();

  bool ok() const { return violations_.empty(); }
  const std::vector<Violation>& violations() const { return violations_; }

  // platform::Cluster::Observer — fired on every allocate/release.
  void node_changed(platform::NodeId node) override;

 private:
  void post_event();
  void on_transition(const core::Task& task, core::TaskState from,
                     core::TaskState to);
  void check_index_coherence();
  void add(const std::string& invariant, const std::string& detail);

  struct TaskRecord {
    core::TaskState last = core::TaskState::kNew;
    int terminals = 0;
  };

  core::Session& session_;
  Options options_;
  sched::FreeResourceIndex index_;  // independent copy under audit
  core::Agent* agent_ = nullptr;
  // In uid order, so finish() reports violations deterministically and in
  // the order of the uids it names.
  struct UidOrder {
    bool operator()(core::TaskId a, core::TaskId b) const {
      return core::uid_less(a, b);
    }
  };
  std::map<core::TaskId, TaskRecord, UidOrder> tasks_;
  std::vector<Violation> violations_;
  std::size_t suppressed_ = 0;
  std::vector<std::int64_t> baseline_free_cores_;
  std::vector<std::int64_t> baseline_free_gpus_;
  sim::Time last_now_ = 0.0;
  std::uint64_t events_seen_ = 0;
  bool finished_ = false;
};

// True iff the lifecycle graph in core/task.hpp permits `from -> to`.
// Duplicated here on purpose: the monitor must not trust the code under
// test (Task::advance) to define legality.
bool legal_transition(core::TaskState from, core::TaskState to);

}  // namespace flotilla::check
