// Flux job model: the jobspec-equivalent a task is serialized into when RP
// submits it over the Flux RPC interface (§3.2.1, Fig 2 ②).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "platform/placement.hpp"
#include "platform/types.hpp"
#include "sim/engine.hpp"

namespace flotilla::flux {

enum class JobState {
  kDepend,    // accepted: in ingest or waiting in queue
  kSched,     // allocated, shims spawning
  kRun,       // executing
  kCleanup,   // exited, completion event not yet processed by rank 0
  kInactive,  // finished, or reaped by a broker crash
};

struct Job {
  std::string id;
  platform::ResourceDemand demand;
  sim::Time duration = 0.0;
  double fail_probability = 0.0;
  JobState state = JobState::kDepend;
  platform::Placement placement;
  // Co-scheduling (§2: tightly coupled tasks "launched concurrently with
  // co-scheduled resources"): jobs sharing a gang tag are placed
  // atomically — all of them or none — and start together once every
  // member's shim is up. gang_size tells the scheduler when the gang is
  // fully submitted.
  std::string gang;
  int gang_size = 0;
  // Urgency (0..31, default 16): the pending queue is ordered by
  // descending priority, then submission order.
  int priority = 16;
};

// Job lifecycle events emitted on the instance's event bus (Fig 2 ④).
enum class JobEventKind {
  kSubmit,
  kAlloc,
  kStart,
  kFinish,
  kException,
};

// Valid for the duration of the handler call: `job_id` refers to the
// instance's own record ("" for an instance-level event).
struct JobEvent {
  JobEventKind kind;
  const std::string& job_id;
  bool success = true;
  std::string_view note;
  sim::Time started = 0.0;
  sim::Time finished = 0.0;
};

}  // namespace flotilla::flux
