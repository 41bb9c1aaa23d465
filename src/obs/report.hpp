// OverheadReport: aggregates a trace's spans into the paper's Fig 7
// overhead categories, so the figure and the trace can never disagree —
// the CSV is regenerated from the same records the timeline view shows.
//
// Categories (docs/observability.md maps spans -> categories):
//   - backend launch overhead: kBootstrap spans per backend/instance
//     component, and kTaskLaunch spans per backend (submit -> start);
//   - scheduler wait: kTaskQueueWait spans (backend queues + agent
//     waitlists);
//   - RP-core routing: kTaskSubmit + kTaskSchedule + kTaskCollect spans
//     (TMGR intake, agent scheduler, collector).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>

#include "obs/tracer.hpp"
#include "sim/stats.hpp"

namespace flotilla::obs {

struct SpanStats {
  std::uint64_t count = 0;
  double total = 0.0;
  double min = 0.0;
  double max = 0.0;

  double mean() const { return count == 0 ? 0.0 : total / count; }

  void add(double duration) {
    if (count == 0 || duration < min) min = duration;
    if (count == 0 || duration > max) max = duration;
    ++count;
    total += duration;
  }
};

class OverheadReport {
 public:
  // Pairs every begin/end in the trace (LIFO per (type, component,
  // entity)) and aggregates durations per (type, component). Unmatched
  // records are counted, not silently dropped, and so are the records the
  // tracer's ring dropped before the report was built.
  static OverheadReport from_trace(const Tracer& tracer);

  // Stats for one (span type, component); zero-stats if absent.
  SpanStats stats(SpanType type, const std::string& component) const;
  // Stats for a span type across all components.
  SpanStats aggregate(SpanType type) const;
  // Stats for a span type over components with the given prefix
  // ("flux" matches "flux.0", "flux.1", ...).
  SpanStats aggregate_prefix(SpanType type,
                             const std::string& component_prefix) const;

  // Fig 7 categories.
  double backend_launch_overhead(const std::string& backend) const {
    return aggregate_prefix(SpanType::kBootstrap, backend).mean();
  }
  double scheduler_wait_total() const {
    return aggregate(SpanType::kTaskQueueWait).total +
           aggregate(SpanType::kTaskSchedule).total;
  }
  double rp_core_total() const {
    return aggregate(SpanType::kTaskSubmit).total +
           aggregate(SpanType::kTaskSchedule).total +
           aggregate(SpanType::kTaskCollect).total;
  }

  std::uint64_t unmatched_ends() const { return unmatched_ends_; }
  std::uint64_t unclosed_begins() const { return unclosed_begins_; }
  // Oldest records the ring overwrote (Tracer::dropped()); when non-zero
  // every count and span total covers only the retained tail of the run.
  std::uint64_t dropped() const { return dropped_; }

  // Full duration distribution per span type (all components), filled
  // from the same pairing pass as the cells; empty-histogram if absent.
  const sim::LatencyHistogram& histogram(SpanType type) const;
  // Service-mode ingress (docs/ingress.md): the per-task submit->launch
  // latency distribution, client offer until the payload starts.
  const sim::LatencyHistogram& submit_to_launch() const {
    return histogram(SpanType::kSubmitLaunch);
  }

  // Instant records per (span type, component) — e.g. routing decisions,
  // placement attempts, durable journal appends (kJournal).
  std::uint64_t instants(SpanType type, const std::string& component) const;
  // Durable-journal row: total records the scribe appended (src/journal).
  std::uint64_t journal_records() const {
    return instants(SpanType::kJournal, "journal");
  }

  // All (type, component) cells, deterministically ordered.
  const std::map<std::pair<SpanType, std::string>, SpanStats>& cells()
      const {
    return cells_;
  }

  void print(std::ostream& os) const;

 private:
  std::map<std::pair<SpanType, std::string>, SpanStats> cells_;
  std::map<std::pair<SpanType, std::string>, std::uint64_t> instants_;
  std::map<SpanType, sim::LatencyHistogram> histograms_;
  std::uint64_t unmatched_ends_ = 0;
  std::uint64_t unclosed_begins_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace flotilla::obs
