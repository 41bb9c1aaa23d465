// Profiler: online run metrics plus optional per-task state records.
//
// Components report task lifecycle moments; the profiler keeps RunMetrics
// current and, when per-task tracing is enabled, emits one obs kTaskState
// instant per state change. The other lifecycle moments are already obs
// spans (kTaskSubmit, kTaskRun, kStateCallback). Per-task tracing is off by
// default because paper-scale runs launch up to 229,376 tasks; metrics are
// always maintained.
#pragma once

#include "analytics/metrics.hpp"
#include "core/session.hpp"
#include "core/task.hpp"
#include "obs/tracer.hpp"

namespace flotilla::core {

class Profiler {
 public:
  // State records need the session's tracer to exist already
  // (Session::enable_tracing); without it `trace_tasks` records nothing.
  explicit Profiler(Session& session, bool trace_tasks = false)
      : session_(session),
        trace_(trace_tasks ? session.trace_handle() : obs::TraceHandle()) {}

  analytics::RunMetrics& metrics() { return metrics_; }
  const analytics::RunMetrics& metrics() const { return metrics_; }

  void submitted(const Task& task);
  void state_change(const Task& task);  // after Task::advance
  void launched(const Task& task);
  void attempt_ended(const Task& task);
  void retried(const Task& task);
  void finalized(const Task& task, bool success);

 private:
  Session& session_;
  analytics::RunMetrics metrics_;
  obs::TraceHandle trace_;  // null unless per-task tracing is on
};

}  // namespace flotilla::core
