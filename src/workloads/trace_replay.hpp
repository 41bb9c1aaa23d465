// Trace replay: drive a session from a recorded workload trace.
//
// Downstream users characterize their own workloads by exporting traces
// (from accounting logs or RP profiles) and replaying them against any
// runtime configuration. Format: CSV with header
//
//   submit_time,cores,gpus,cores_per_node,duration,modality,stage
//
// where modality is "exec" or "func" and stage is an optional tag. Records
// are submitted at their virtual submit_time relative to replay start.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/task.hpp"
#include "core/task_manager.hpp"

namespace flotilla::workloads {

struct TraceEntry {
  sim::Time submit_time = 0.0;
  core::TaskDescription task;
};

// Parses the CSV text; throws util::Error labeled "trace:" on a malformed
// row.
std::vector<TraceEntry> parse_trace(std::istream& in);

// Serializes entries back to the CSV format (round-trip safe).
void write_trace(std::ostream& out, const std::vector<TraceEntry>& entries);

// Schedules every entry for submission at `start + entry.submit_time`.
// Returns the number of scheduled tasks.
std::size_t replay(core::TaskManager& tmgr,
                   const std::vector<TraceEntry>& entries,
                   sim::Time start = 0.0);

}  // namespace flotilla::workloads
