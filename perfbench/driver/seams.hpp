// Layer seams for the traced run, built entirely from the public API.
//
// TimedBackend is a transparent platform::TaskBackend decorator: it
// forwards every call to the real backend, times submit() and the agent's
// start/completion handlers, and records what crossed the seam (each
// LaunchRequest with its submit time, each start and completion with the
// time the agent heard of it). The recordings then drive isolation
// replays:
//   - ReplayBackend stands in for a real backend and plays back the
//     recorded starts and completions, so the RP core runs alone;
//   - replay_backend() runs one real backend alone, fed the recorded
//     requests at their recorded times (or the stub, or a sink, to measure
//     what the replay harness itself costs);
//   - replay_placer() places every recorded demand on a standalone
//     sched::Placer and releases it at its recorded completion;
//   - replay_calendar() drives a bare sim::Engine through the recorded
//     event times with empty callbacks.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/pilot.hpp"
#include "platform/backend.hpp"

namespace perfbench {

namespace fl = flotilla;

struct SeamTask {
  double start_call = -1.0;     // virtual time the start handler ran
  double complete_call = -1.0;  // virtual time the completion handler ran
  fl::platform::LaunchOutcome outcome;
};

struct SeamSubmit {
  double time = 0.0;
  fl::platform::LaunchRequest request;
};

// Everything one backend's seam saw during the traced run.
struct BackendRecording {
  fl::core::BackendSpec spec;
  fl::platform::NodeRange span;
  std::string name;
  bool accepts_executable = false;
  bool accepts_function = false;
  bool coscheduling = false;
  double bootstrap_call = -1.0;
  double ready_time = -1.0;
  double settle_time = 0.0;  // virtual time the set-up run drained at
  std::vector<SeamSubmit> submits;
  std::unordered_map<std::string, SeamTask> tasks;
  // Host seconds inside the real backend's submit() (minus any handler it
  // called back synchronously) and inside the agent's handlers.
  double submit_s = 0.0;
  double handler_s = 0.0;
  // The real backend, valid while the traced stack lives.
  fl::platform::TaskBackend* inner = nullptr;
};

class TimedBackend : public fl::platform::TaskBackend {
 public:
  TimedBackend(std::unique_ptr<fl::platform::TaskBackend> inner,
               fl::sim::Engine& engine, BackendRecording& rec);

  const std::string& name() const override { return inner_->name(); }
  bool accepts(fl::platform::TaskModality modality) const override {
    return inner_->accepts(modality);
  }
  bool self_scheduling() const override { return inner_->self_scheduling(); }
  fl::platform::NodeRange span() const override { return inner_->span(); }
  bool supports_coscheduling() const override {
    return inner_->supports_coscheduling();
  }
  void bootstrap(ReadyHandler ready) override;
  void submit(fl::platform::LaunchRequest request) override;
  void on_task_start(StartHandler handler) override;
  void on_task_complete(CompletionHandler handler) override;
  void shutdown() override { inner_->shutdown(); }
  bool healthy() const override { return inner_->healthy(); }
  std::size_t inflight() const override { return inner_->inflight(); }
  bool quiescent() const override { return inner_->quiescent(); }
  std::string restore_summary() const override {
    return inner_->restore_summary();
  }
  void set_trace(fl::obs::TraceHandle handle) override {
    inner_->set_trace(handle);
  }

 private:
  std::unique_ptr<fl::platform::TaskBackend> inner_;
  fl::sim::Engine& engine_;
  BackendRecording& rec_;
};

// Plays back a recording: becomes ready, starts and completes each task
// at the recorded virtual times, with the recorded outcome.
class ReplayBackend : public fl::platform::TaskBackend {
 public:
  ReplayBackend(fl::sim::Engine& engine, const BackendRecording& rec)
      : engine_(engine), rec_(rec) {}

  const std::string& name() const override { return rec_.name; }
  bool accepts(fl::platform::TaskModality modality) const override {
    return modality == fl::platform::TaskModality::kFunction
               ? rec_.accepts_function
               : rec_.accepts_executable;
  }
  fl::platform::NodeRange span() const override { return rec_.span; }
  bool supports_coscheduling() const override { return rec_.coscheduling; }
  void bootstrap(ReadyHandler ready) override;
  void submit(fl::platform::LaunchRequest request) override;
  void on_task_start(StartHandler handler) override {
    start_handler_ = std::move(handler);
  }
  void on_task_complete(CompletionHandler handler) override {
    completion_handler_ = std::move(handler);
  }
  void shutdown() override {}
  bool healthy() const override { return ready_; }
  std::size_t inflight() const override { return inflight_; }

  // Submits of tasks the recording does not know (must stay 0).
  std::size_t unknown() const { return unknown_; }

 private:
  fl::sim::Engine& engine_;
  const BackendRecording& rec_;
  StartHandler start_handler_;
  CompletionHandler completion_handler_;
  std::size_t inflight_ = 0;
  std::size_t unknown_ = 0;
  bool ready_ = false;
};

struct BackendReplay {
  double wall_s = 0.0;
  std::size_t tasks = 0;
  // Tasks whose replayed start or completion time differs from the
  // recording, or that never completed.
  std::size_t mismatches = 0;
};

// What replay_backend() feeds the recorded requests to.
enum class Feed {
  kReal,  // the real backend, built as in the traced run
  kStub,  // a ReplayBackend playing the recording back
  kSink,  // a backend that drops every request: the feeding cost alone
};

// Feeds the recorded requests, at their recorded times, to one backend
// alone on a fresh engine and cluster of `nodes` nodes, with the same seed.
BackendReplay replay_backend(const BackendRecording& rec, int nodes,
                             std::uint64_t seed, Feed feed);

struct PlacerReplay {
  double wall_s = 0.0;
  std::uint64_t attempts = 0;
  std::uint64_t placed = 0;
};

// Places every recorded demand, at its recorded start, on standalone
// placers shaped like the backends' own (one per flux instance with a
// fixed scan origin, one rotating placer per dragon runtime), and
// releases it at its recorded completion.
PlacerReplay replay_placer(const std::vector<BackendRecording>& recs,
                           int nodes);

// Event times (execution order) and calendar depth after each event.
struct EventLog {
  std::size_t initial_pending = 0;
  std::vector<double> times;
  std::vector<std::uint32_t> pending;
};

struct CalendarReplay {
  double wall_s = 0.0;
  std::uint64_t events = 0;
};

// Replays the log through a bare engine: every event fires at a recorded
// time and schedules as many new events as the real one did, so the
// calendar's depth follows the recorded profile.
CalendarReplay replay_calendar(const EventLog& log);

}  // namespace perfbench
