#include "core/profiler.hpp"

namespace flotilla::core {

void Profiler::submitted(const Task&) { metrics_.on_submit(session_.now()); }

void Profiler::state_change(const Task& task) {
  if (trace_) {
    trace_.instant(obs::SpanType::kTaskState, "agent", task.uid(),
                   static_cast<double>(task.state()));
  }
}

void Profiler::launched(const Task& task) {
  const auto& demand = task.demand();
  metrics_.on_launch(session_.now(), demand.cores, demand.gpus);
}

void Profiler::attempt_ended(const Task& task) {
  const auto& demand = task.demand();
  metrics_.on_attempt_end(session_.now(), demand.cores, demand.gpus);
}

void Profiler::retried(const Task&) { metrics_.on_retry(); }

void Profiler::finalized(const Task&, bool success) {
  metrics_.on_final(session_.now(), success);
}

}  // namespace flotilla::core
