// Structured event tracing: the profiling substrate for overhead
// attribution (docs/observability.md).
//
// Components record typed spans (begin/end pairs) and counters into a
// preallocated ring buffer keyed by virtual time — the RP-profiler
// methodology (arXiv:2103.00091) applied to the simulated stack. Two
// exporters (obs/export.hpp) turn a trace into a Chrome trace_event JSON
// (Perfetto / chrome://tracing) or an RP-style flat .prof CSV, and
// obs::OverheadReport (obs/report.hpp) aggregates spans into the paper's
// Fig 7 overhead categories.
//
// Everything is driven by sim::Engine::now(), so a trace is as
// deterministic as the simulation itself: same seed, byte-identical
// export. Every record is also folded into a running FNV-1a-64 digest(),
// the run fingerprint of the determinism and recovery oracles, so what
// the oracles compare is the stream the exporters show. Instrumentation
// sites hold a TraceHandle, which is a null pointer when tracing is off —
// the disabled path is a single branch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/engine.hpp"
#include "util/hash.hpp"

namespace flotilla::obs {

// Span taxonomy. Task lifecycle spans follow one task through the
// pipeline (submit -> schedule-queue -> placement -> launch -> run ->
// collect); component spans attribute time to a piece of the runtime
// rather than a task. docs/observability.md maps these to the Fig 7
// overhead categories.
enum class SpanType : std::uint8_t {
  // Task lifecycle.
  kTaskSubmit,     // TMGR intake: submit() until the agent accepts it
  kTaskStageIn,    // input staging through the stager
  kTaskSchedule,   // agent scheduler queue + routing decision
  kTaskQueueWait,  // waiting in a backend queue / agent waitlist
  kTaskLaunch,     // backend submit until the payload starts
  kTaskRun,        // payload executing
  kTaskStageOut,   // output staging
  kTaskCollect,    // completion event until the final state is applied
  // Component spans / instants.
  kBootstrap,         // backend or instance bootstrap
  kRouting,           // instant: agent routing decision (value = slot)
  kPlacementAttempt,  // instant: placer call (value: 1 placed, 0 rejected)
  kStateCallback,     // instant: final-state callback delivery
  kJournal,           // instant: durable journal record appended
  // Service-mode ingress (docs/ingress.md).
  kSubmitLaunch,      // client offer accepted until the payload starts
  kAdmission,         // instant: admission verdict (entity: accept/
                      // reject/defer, value: client id)
  kTaskState,         // instant: task state change (value: TaskState
                      // ordinal); only with per-task tracing
};

// Stable short name ("submit", "run", "bootstrap", ...) used by both
// exporters and the report; never reused or renumbered.
std::string_view to_string(SpanType type);

enum class RecordKind : std::uint8_t { kBegin, kEnd, kInstant, kCounter };

struct Record {
  sim::Time time = 0.0;
  RecordKind kind = RecordKind::kInstant;
  SpanType type = SpanType::kTaskSubmit;  // unused for counters
  std::string component;  // "tmgr", "agent", "flux.0", "dragon", ...
  std::string entity;     // task uid, instance name, or counter name
  double value = 0.0;     // optional payload (cores, slot index, count)
};

// Preallocated ring buffer of trace records. Overflow policy: drop-oldest
// — the newest records always land, and dropped() reports how many fell
// off the head (exporters surface the loss instead of hiding it). The
// digest folds each record as it is pushed, dropped ones included, so it
// does not depend on the capacity.
class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 20;

  explicit Tracer(sim::Engine& engine,
                  std::size_t capacity = kDefaultCapacity);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  sim::Time now() const { return engine_->now(); }
  sim::Engine& engine() { return *engine_; }

  void begin(SpanType type, std::string_view component,
             std::string_view entity, double value = 0.0) {
    push(RecordKind::kBegin, type, component, entity, value);
  }
  void end(SpanType type, std::string_view component,
           std::string_view entity, double value = 0.0) {
    push(RecordKind::kEnd, type, component, entity, value);
  }
  void instant(SpanType type, std::string_view component,
               std::string_view entity, double value = 0.0) {
    push(RecordKind::kInstant, type, component, entity, value);
  }
  // Counters are sampled time series (name -> value at time t); the type
  // field is ignored.
  void counter(std::string_view component, std::string_view name,
               double value) {
    push(RecordKind::kCounter, SpanType::kTaskSubmit, component, name,
         value);
  }

  std::size_t size() const { return count_; }
  std::size_t capacity() const { return ring_.size(); }
  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t dropped() const { return recorded_ - count_; }
  // FNV-1a-64 over every record pushed since construction or clear():
  // time bits, kind, type, component, entity and value bits, in order.
  std::uint64_t digest() const { return digest_; }

  // Visits the retained records oldest-first (chronological: virtual time
  // never goes backwards, and same-time records keep insertion order).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < count_; ++i) fn(at(i));
  }

  // i-th retained record, 0 = oldest.
  const Record& at(std::size_t i) const {
    return ring_[(head_ + i) % ring_.size()];
  }

  void clear() {
    count_ = 0;
    head_ = 0;
    recorded_ = 0;
    digest_ = util::kFnv64Basis;
  }

 private:
  void push(RecordKind kind, SpanType type, std::string_view component,
            std::string_view entity, double value);

  sim::Engine* engine_;
  std::vector<Record> ring_;  // preallocated; strings grow on demand
  std::size_t head_ = 0;      // index of the oldest retained record
  std::size_t count_ = 0;     // retained records
  std::uint64_t recorded_ = 0;
  std::uint64_t digest_ = util::kFnv64Basis;
};

// Nullable, copyable view over a Tracer. Instrumentation sites hold one
// by value; when no tracer is attached every call is a tested branch and
// nothing else (zero-cost-when-disabled).
class TraceHandle {
 public:
  TraceHandle() = default;
  explicit TraceHandle(Tracer* tracer) : tracer_(tracer) {}

  bool enabled() const { return tracer_ != nullptr; }
  explicit operator bool() const { return enabled(); }
  Tracer* tracer() const { return tracer_; }

  void begin(SpanType type, std::string_view component,
             std::string_view entity, double value = 0.0) const {
    if (tracer_) tracer_->begin(type, component, entity, value);
  }
  void end(SpanType type, std::string_view component,
           std::string_view entity, double value = 0.0) const {
    if (tracer_) tracer_->end(type, component, entity, value);
  }
  void instant(SpanType type, std::string_view component,
               std::string_view entity, double value = 0.0) const {
    if (tracer_) tracer_->instant(type, component, entity, value);
  }
  void counter(std::string_view component, std::string_view name,
               double value) const {
    if (tracer_) tracer_->counter(component, name, value);
  }

 private:
  Tracer* tracer_ = nullptr;
};

}  // namespace flotilla::obs
