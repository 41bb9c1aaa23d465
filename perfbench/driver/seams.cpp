#include "seams.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <optional>
#include <tuple>

#include "campaign.hpp"
#include "sched/placer.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

TimedBackend::TimedBackend(std::unique_ptr<fl::platform::TaskBackend> inner,
                           fl::sim::Engine& engine, BackendRecording& rec)
    : inner_(std::move(inner)), engine_(engine), rec_(rec) {
  rec_.name = inner_->name();
  rec_.span = inner_->span();
  rec_.accepts_executable =
      inner_->accepts(fl::platform::TaskModality::kExecutable);
  rec_.accepts_function =
      inner_->accepts(fl::platform::TaskModality::kFunction);
  rec_.coscheduling = inner_->supports_coscheduling();
  rec_.inner = inner_.get();
}

void TimedBackend::bootstrap(ReadyHandler ready) {
  rec_.bootstrap_call = engine_.now();
  inner_->bootstrap(
      [this, ready = std::move(ready)](bool ok, std::string error) {
        rec_.ready_time = engine_.now();
        ready(ok, std::move(error));
      });
}

void TimedBackend::submit(fl::platform::LaunchRequest request) {
  rec_.submits.push_back({engine_.now(), request});
  const double handler_before = rec_.handler_s;
  const auto t0 = Clock::now();
  inner_->submit(std::move(request));
  rec_.submit_s +=
      seconds(t0, Clock::now()) - (rec_.handler_s - handler_before);
}

void TimedBackend::on_task_start(StartHandler handler) {
  inner_->on_task_start(
      [this, handler = std::move(handler)](const std::string& id) {
        rec_.tasks[id].start_call = engine_.now();
        const auto t0 = Clock::now();
        handler(id);
        rec_.handler_s += seconds(t0, Clock::now());
      });
}

void TimedBackend::on_task_complete(CompletionHandler handler) {
  inner_->on_task_complete(
      [this, handler = std::move(handler)](
          const fl::platform::LaunchOutcome& outcome) {
        auto& task = rec_.tasks[outcome.id];
        task.complete_call = engine_.now();
        task.outcome = outcome;
        const auto t0 = Clock::now();
        handler(outcome);
        rec_.handler_s += seconds(t0, Clock::now());
      });
}

void ReplayBackend::bootstrap(ReadyHandler ready) {
  engine_.at(rec_.ready_time, [this, ready = std::move(ready)] {
    ready_ = true;
    ready(true, "");
  });
  // The real backends leave bootstrap events behind (dragon's startup
  // timeout); the set-up run drains them, which sets the virtual time the
  // campaign starts at.
  engine_.at(rec_.settle_time, [] {});
}

void ReplayBackend::submit(fl::platform::LaunchRequest request) {
  const auto it = rec_.tasks.find(request.id);
  if (it == rec_.tasks.end() || it->second.complete_call < 0.0) {
    ++unknown_;
    return;
  }
  ++inflight_;
  const SeamTask* task = &it->second;
  if (task->start_call >= 0.0) {
    engine_.at(task->start_call, [this, id = std::move(request.id)] {
      if (start_handler_) start_handler_(id);
    });
  }
  engine_.at(task->complete_call, [this, task] {
    --inflight_;
    if (completion_handler_) completion_handler_(task->outcome);
  });
}

namespace {

// Accepts every request and never reports back.
class SinkBackend : public fl::platform::TaskBackend {
 public:
  const std::string& name() const override { return name_; }
  bool accepts(fl::platform::TaskModality) const override { return true; }
  fl::platform::NodeRange span() const override { return {}; }
  void bootstrap(ReadyHandler ready) override { ready(true, ""); }
  void submit(fl::platform::LaunchRequest) override {}
  void on_task_start(StartHandler) override {}
  void on_task_complete(CompletionHandler) override {}
  void shutdown() override {}
  bool healthy() const override { return true; }
  std::size_t inflight() const override { return 0; }

 private:
  std::string name_ = "sink";
};

}  // namespace

BackendReplay replay_backend(const BackendRecording& rec, int nodes,
                             std::uint64_t seed, Feed feed) {
  fl::sim::Engine engine;
  fl::platform::Cluster cluster(fl::platform::frontier_spec(), nodes);
  fl::sim::Resource ceiling(engine, cluster.spec().srun_concurrency_ceiling);
  const auto cal = fl::platform::frontier_calibration();
  std::unique_ptr<fl::platform::TaskBackend> backend;
  switch (feed) {
    case Feed::kReal:
      backend = make_real_backend(engine, cluster, cal, seed, rec.spec,
                                  rec.span, &ceiling);
      break;
    case Feed::kStub:
      backend = std::make_unique<ReplayBackend>(engine, rec);
      break;
    case Feed::kSink:
      backend = std::make_unique<SinkBackend>();
      break;
  }
  // Handlers only note what happened; the check runs after the clock stops.
  std::vector<std::pair<double, std::string>> starts, completions;
  starts.reserve(rec.tasks.size());
  completions.reserve(rec.tasks.size());
  backend->on_task_start([&](const std::string& id) {
    starts.emplace_back(engine.now(), id);
  });
  backend->on_task_complete([&](const fl::platform::LaunchOutcome& outcome) {
    completions.emplace_back(engine.now(), outcome.id);
  });
  bool ready = false;
  engine.at(rec.bootstrap_call, [&] {
    backend->bootstrap([&ready](bool ok, const std::string&) { ready = ok; });
  });
  // One feeder event per distinct submit time, chained so the calendar
  // never holds more than one of them.
  std::size_t next = 0;
  std::function<void()> feeder = [&] {
    const double now = rec.submits[next].time;
    while (next < rec.submits.size() && rec.submits[next].time == now) {
      backend->submit(rec.submits[next++].request);
    }
    if (next < rec.submits.size()) engine.at(rec.submits[next].time, feeder);
  };
  if (!rec.submits.empty()) engine.at(rec.submits.front().time, feeder);

  const auto t0 = Clock::now();
  engine.run();
  BackendReplay result;
  result.wall_s = seconds(t0, Clock::now());
  result.tasks = rec.tasks.size();
  if (feed == Feed::kSink) return result;
  if (!ready) {
    result.mismatches = rec.tasks.size();
    return result;
  }
  std::unordered_map<std::string, std::pair<double, double>> seen;
  for (const auto& [t, id] : starts) seen[id].first = t;
  for (const auto& [t, id] : completions) seen[id].second = t;
  for (const auto& [id, task] : rec.tasks) {
    const auto it = seen.find(id);
    if (it == seen.end() || it->second.first != task.start_call ||
        it->second.second != task.complete_call) {
      ++result.mismatches;
    }
  }
  for (const auto& [id, times] : seen) {
    if (rec.tasks.count(id) == 0) ++result.mismatches;  // never recorded
  }
  return result;
}

PlacerReplay replay_placer(const std::vector<BackendRecording>& recs,
                           int nodes) {
  fl::platform::Cluster cluster(fl::platform::frontier_spec(), nodes);
  const auto cores_per_node = cluster.spec().cores_per_node;
  std::vector<std::unique_ptr<fl::sched::Placer>> placers;
  struct Op {
    double time;
    int kind;  // 0 release, 1 place: a completion frees before a placement
    std::size_t task;
  };
  struct Item {
    const fl::platform::ResourceDemand* demand;
    fl::sched::Placer* placer;
    std::optional<fl::platform::Placement> held;
  };
  std::vector<Op> ops;
  std::vector<Item> items;
  for (const auto& rec : recs) {
    const bool flux = rec.spec.type == "flux";
    const auto ranges =
        fl::platform::Cluster::partition(rec.span, rec.spec.partitions);
    const std::size_t first = placers.size();
    for (const auto& range : ranges) {
      placers.push_back(std::make_unique<fl::sched::Placer>(
          cluster, range,
          fl::sched::PlacerOptions{.rotate_cursor = !flux}));
    }
    // The backends' round-robin over partitions large enough for the task.
    std::size_t cursor = 0;
    for (const auto& submit : rec.submits) {
      const auto it = rec.tasks.find(submit.request.id);
      if (it == rec.tasks.end() || it->second.start_call < 0.0) continue;
      const auto& demand = submit.request.demand;
      std::size_t pick = ranges.size();
      for (std::size_t step = 0; step < ranges.size(); ++step) {
        const std::size_t i = (cursor + step) % ranges.size();
        if (demand.cores <= static_cast<std::int64_t>(ranges[i].count) *
                                cores_per_node) {
          pick = i;
          cursor = (i + 1) % ranges.size();
          break;
        }
      }
      if (pick == ranges.size()) continue;
      items.push_back({&demand, placers[first + pick].get(), std::nullopt});
      ops.push_back({it->second.start_call, 1, items.size() - 1});
      ops.push_back({it->second.complete_call, 0, items.size() - 1});
    }
  }
  std::sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) {
    return std::tie(a.time, a.kind, a.task) < std::tie(b.time, b.kind, b.task);
  });

  PlacerReplay result;
  const auto t0 = Clock::now();
  for (const auto& op : ops) {
    auto& item = items[op.task];
    if (op.kind == 1) {
      ++result.attempts;
      item.held = item.placer->place(*item.demand);
      if (item.held) ++result.placed;
    } else if (item.held) {
      item.placer->release(*item.held);
      item.held.reset();
    }
  }
  result.wall_s = seconds(t0, Clock::now());
  return result;
}

CalendarReplay replay_calendar(const EventLog& log) {
  fl::sim::Engine engine;
  const std::size_t n = log.times.size();
  std::size_t cursor = 0;    // next recorded time to hand out
  std::size_t executed = 0;  // events fired so far
  std::size_t depth = log.initial_pending;
  std::function<void()> fire;
  auto schedule = [&](std::size_t count) {
    for (std::size_t k = 0; k < count && cursor < n; ++k) {
      engine.at(log.times[cursor++], [&fire] { fire(); });
    }
  };
  fire = [&] {
    const std::size_t after = log.pending[executed++];
    // Events the real one scheduled: the depth change plus itself.
    const std::size_t added = after + 1 > depth ? after + 1 - depth : 0;
    depth = after;
    schedule(added);
  };
  schedule(log.initial_pending);
  const auto t0 = Clock::now();
  engine.run();
  CalendarReplay result;
  result.wall_s = seconds(t0, Clock::now());
  result.events = executed;
  return result;
}

}  // namespace perfbench
