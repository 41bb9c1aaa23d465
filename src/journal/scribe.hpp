// Scribe: feeds the journal from the runtime's observation points.
//
// The scribe rides the same hooks the InvariantMonitor uses — the task
// transition hook (every lifecycle edge) and Cluster::Observer (every
// allocate/release, journaled as per-node free-capacity deltas) — plus
// harness-driven records (header, pilot-ready, fault injections, end
// summary). Because every record is emitted synchronously from the
// deterministic event loop, the journal bytes are a pure function of the
// seed: same spec, same bytes (the recovery oracle's foundation).
//
// Two modes:
//   record    append every record to the journal (a normal durable run).
//   validate  the recovery path. Constructed with a journal prefix, the
//             scribe re-executes the run and compares each emitted record
//             against the prefix, byte for byte. The first mismatch is
//             captured as a Divergence (a recovery bug: the restored state
//             does not reproduce the journaled history). Once the prefix
//             is exhausted the run "goes live" — replay_complete() — and
//             keeps appending, so a recovered journal grows into exactly
//             the bytes an uninterrupted run would have produced.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/session.hpp"
#include "core/task_manager.hpp"
#include "journal/journal.hpp"
#include "journal/record.hpp"

namespace flotilla::journal {

// First record that failed prefix validation during recovery.
struct Divergence {
  std::size_t index = 0;  // record index in the journal (0 = header)
  std::string expected;   // the journaled line
  std::string got;        // the line the re-execution produced
};

class Scribe : public platform::Cluster::Observer {
 public:
  // Record mode: every emitted record is appended.
  explicit Scribe(core::Session& session);
  // Validate mode: emitted records are checked against `prefix` first
  // (recovery replay); appending continues either way. The scribe borrows
  // the prefix, which must outlive it (RecoveryManager::prefix() does, when
  // the manager is declared before the scribe); a temporary prefix does not
  // compile.
  Scribe(core::Session& session, const std::vector<Record>& prefix);
  Scribe(core::Session& session, std::vector<Record>&& prefix) = delete;
  ~Scribe() override;

  Scribe(const Scribe&) = delete;
  Scribe& operator=(const Scribe&) = delete;

  // Registers transition() as the task transition hook; call before
  // submitting tasks (hooks only cover tasks submitted after registration).
  void attach(core::TaskManager& tmgr);

  // The transition hook: journals one lifecycle edge of `task`, encoded
  // straight from the task's fields (no Record is built). The line carries
  // the task's id and `to`; `from` is implied by the task's previous edge.
  void transition(const core::Task& task, core::TaskState from,
                  core::TaskState to);

  // Harness-driven records.
  void record_header(std::uint64_t seed, std::string spec);
  void record_ready();
  void record_fault(std::string kind, std::string backend, std::int64_t index,
                    std::int64_t count);
  void record_end(std::int64_t done, std::int64_t failed,
                  std::int64_t canceled, std::uint64_t events);

  // platform::Cluster::Observer — journals the free-capacity delta of the
  // changed node (negative = allocation claimed capacity), encoded straight
  // from the delta (no Record is built).
  void node_changed(platform::NodeId node) override;

  const Writer& writer() const { return writer_; }
  std::size_t records() const { return writer_.records(); }

  // Validation state (validate mode; trivially true/false in record mode).
  bool replay_complete() const { return cursor_ >= prefix_.size(); }
  std::size_t cursor() const { return cursor_; }
  bool diverged() const { return diverged_; }
  const Divergence& divergence() const { return divergence_; }

 private:
  void emit(const Record& record);
  // Validates `line`, just appended, against the journal prefix and
  // traces it.
  void appended(RecordType type, std::string_view line);

  core::Session& session_;
  obs::TraceHandle obs_trace_;
  Writer writer_;

  // Validation cursor over the borrowed journal prefix (empty in record
  // mode).
  std::span<const Record> prefix_;
  // prefix_[cursor_] encoded up to its checksum; reused across records.
  std::string expected_;
  std::size_t cursor_ = 0;
  bool validating_ = false;
  bool diverged_ = false;
  Divergence divergence_;

  // Last observed free capacity per node, to turn node_changed pings into
  // journaled deltas.
  std::vector<std::int64_t> free_cores_;
  std::vector<std::int64_t> free_gpus_;
};

}  // namespace flotilla::journal
