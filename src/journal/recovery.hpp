// RecoveryManager: turns surviving journal bytes back into a runnable,
// checkable recovery plan (docs/recovery.md).
//
// Flotilla recovers by deterministic re-execution: the journal header
// carries the full serialized scenario/config line, so the recovering
// controller rebuilds the run from the seed and validates every record it
// re-emits against the journal prefix (a Scribe in validate mode). Any
// mismatch means the restored state machine does not reproduce its own
// history — a recovery bug, surfaced as a Divergence. Once the prefix is
// exhausted the run goes live and finishes normally, which is what makes
// "recovered terminal state == uninterrupted terminal state" an exact,
// byte-level oracle rather than a statistical one.
//
// The manager also folds the prefix into a StateImage — the per-task /
// per-node summary a restored controller would hold — used by the backend
// RecoveryContract suite and by tools to describe what a journal contains.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "journal/journal.hpp"
#include "journal/record.hpp"

namespace flotilla::journal {

// Summary state reconstructed from a journal prefix.
struct StateImage {
  struct TaskImage {
    core::TaskState state = core::TaskState::kNew;  // last journaled state
    // The state the last edge left, which the edge does not carry: the
    // state before it, kNew for a task's first edge.
    core::TaskState from = core::TaskState::kNew;
    std::string backend;  // last journaled backend assignment
    std::int64_t attempt = 0;
    int terminal_edges = 0;  // edges into kDone/kFailed/kCanceled
  };

  // Keyed by core::Task::id(), ordered so iteration (and test output) is
  // deterministic.
  std::map<core::TaskId, TaskImage> tasks;
  // Net journaled free-capacity delta per node (0 = node back to its
  // attach-time capacity; negative = capacity still claimed at the crash).
  std::map<std::int64_t, std::int64_t> core_delta;
  std::map<std::int64_t, std::int64_t> gpu_delta;

  bool ready = false;  // pilot had reported ready
  sim::Time ready_time = 0.0;
  std::size_t faults = 0;     // fault records seen
  bool ended = false;         // end record present (run was uninterrupted)
  sim::Time last_time = 0.0;  // time of the last journaled record

  std::size_t tasks_in_flight() const;  // tasks without a terminal edge
};

class RecoveryManager {
 public:
  // Parses journal bytes. A torn tail (crash-mid-write) is tolerated and
  // reported via truncated(); mid-stream corruption or a missing/invalid
  // header raises util::Error with the damaged record's index.
  explicit RecoveryManager(std::string_view bytes);

  // Run identity from the header record.
  std::uint64_t seed() const { return seed_; }
  const std::string& spec_line() const { return spec_; }

  // Every intact record, header included — the validation prefix for a
  // Scribe in validate mode.
  const std::vector<Record>& prefix() const { return prefix_; }

  // Torn-tail report from the reader.
  bool truncated() const { return truncated_; }
  std::size_t truncated_bytes() const { return truncated_bytes_; }

  // Folds the prefix into the restored-controller summary state.
  StateImage image() const;

 private:
  std::vector<Record> prefix_;
  std::uint64_t seed_ = 0;
  std::string spec_;
  bool truncated_ = false;
  std::size_t truncated_bytes_ = 0;
};

}  // namespace flotilla::journal
