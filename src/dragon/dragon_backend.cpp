#include "dragon/dragon_backend.hpp"

#include "platform/cluster.hpp"
#include "util/error.hpp"

namespace flotilla::dragon {

DragonBackend::DragonBackend(sim::Engine& engine, platform::Cluster& cluster,
                             platform::NodeRange span,
                             const platform::DragonCalibration& cal,
                             std::uint64_t seed, int partitions)
    : engine_(engine),
      span_(span),
      cores_per_node_(cluster.spec().cores_per_node),
      cal_(cal) {
  const auto ranges = platform::Cluster::partition(span, partitions);
  runtimes_.reserve(ranges.size());
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    runtimes_.push_back(std::make_unique<Runtime>(
        engine, cluster, ranges[i], cal, seed + 104729 * (i + 1)));
    // The watcher thread: consumes Dragon events and updates RP's registry.
    runtimes_.back()->on_event([this](const TaskEvent& event) {
      if (event.kind == TaskEvent::Kind::kStart) {
        if (start_handler_) start_handler_(event.id);
        return;
      }
      complete(event.id, event.success, event.note, event.started,
               event.finished);
    });
  }
}

DragonBackend::~DragonBackend() = default;

void DragonBackend::bootstrap(ReadyHandler ready) {
  auto ready_shared = std::make_shared<ReadyHandler>(std::move(ready));
  auto remaining = std::make_shared<int>(static_cast<int>(runtimes_.size()));
  for (auto& runtime : runtimes_) {
    runtime->bootstrap([this, remaining, ready_shared] {
      if (--*remaining > 0 || ready_reported_) return;
      ready_reported_ = true;
      ready_ = true;
      (*ready_shared)(true, "");
    });
  }
  // §3.2.2: startup timeouts prevent RP from stalling on a hung runtime.
  engine_.in(cal_.startup_timeout, [this, ready_shared] {
    if (ready_reported_) return;
    ready_reported_ = true;
    for (auto& runtime : runtimes_) {
      if (runtime->healthy()) runtime->crash("startup timeout");
    }
    (*ready_shared)(false, "dragon runtime startup timed out");
  });
}

int DragonBackend::pick_runtime(
    const platform::ResourceDemand& demand) const {
  const int n = static_cast<int>(runtimes_.size());
  for (int step = 0; step < n; ++step) {
    const int i = (rr_cursor_ + step) % n;
    const auto& runtime = *runtimes_[static_cast<size_t>(i)];
    if (!runtime.healthy()) continue;
    const auto capacity =
        static_cast<std::int64_t>(runtime.span().count) * cores_per_node_;
    if (demand.cores > capacity) continue;
    rr_cursor_ = (i + 1) % n;
    return i;
  }
  return -1;
}

void DragonBackend::complete(const std::string& id, bool success,
                             std::string_view error, sim::Time started,
                             sim::Time finished) {
  FLOT_CHECK(inflight_ > 0, "dragon completion without inflight task");
  --inflight_;
  if (completion_handler_) {
    completion_handler_(platform::LaunchOutcome{id, success, std::string(error),
                                                started, finished});
  }
}

void DragonBackend::submit(platform::LaunchRequest request) {
  FLOT_CHECK(ready_, "submit to dragon backend before bootstrap");
  ++inflight_;
  const int target = pick_runtime(request.demand);
  if (target < 0) {
    complete(request.id, false, "no healthy dragon runtime can fit task", 0.0,
             engine_.now());
    return;
  }
  runtimes_[static_cast<size_t>(target)]->execute(std::move(request));
}

void DragonBackend::crash(const std::string& reason, int instance) {
  runtimes_.at(static_cast<size_t>(instance))->crash(reason);
}

bool DragonBackend::quiescent() const {
  if (inflight_ != 0) return false;
  for (const auto& runtime : runtimes_) {
    if (runtime->pending() != 0 || runtime->running() != 0) return false;
  }
  return true;
}

bool DragonBackend::healthy() const {
  if (!ready_) return false;
  for (const auto& runtime : runtimes_) {
    if (runtime->healthy()) return true;
  }
  return false;
}

void DragonBackend::shutdown() {
  for (auto& runtime : runtimes_) {
    if (runtime->healthy()) runtime->crash("backend shut down");
  }
  ready_ = false;
}

}  // namespace flotilla::dragon
