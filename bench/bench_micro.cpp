// Microbenchmarks (google-benchmark) of the hot paths every experiment
// rides on: the DES engine, the queueing primitives, placement and the
// journal codec.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "journal/journal.hpp"
#include "journal/record.hpp"
#include "platform/cluster.hpp"
#include "sched/placement_policy.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/resource.hpp"
#include "sim/server.hpp"
#include "sim/stats.hpp"

namespace {

using namespace flotilla;

void BM_EngineScheduleAndRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < state.range(0); ++i) {
      engine.at(static_cast<double>(i % 97), [] {});
    }
    engine.run();
    benchmark::DoNotOptimize(engine.processed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineScheduleAndRun)->Arg(1000)->Arg(100000);

void BM_EngineCancel(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    std::vector<sim::Engine::EventId> ids;
    ids.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
      ids.push_back(engine.at(static_cast<double>(i), [] {}));
    }
    for (const auto id : ids) engine.cancel(id);
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EngineCancel);

// The calendar at the pending depth of the null campaigns (their
// sim.pending_peak is 11): ten events, each rescheduling itself at a random
// later time, so every iteration is one pop, one call and one push.
void BM_EngineSteadyPending(benchmark::State& state) {
  struct Loop {
    sim::Engine engine;
    std::vector<double> delays;
    std::size_t next = 0;
    void reschedule() {
      const double delay = delays[next];
      next = (next + 1) & (delays.size() - 1);  // a power of two
      engine.in(delay, [this] { reschedule(); });
    }
  } loop;
  sim::RngStream rng(42, "bench");
  loop.delays.resize(4096);
  for (double& delay : loop.delays) delay = rng.exponential(1.0);
  for (int i = 0; i < 10; ++i) loop.reschedule();
  for (auto _ : state) loop.engine.step();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineSteadyPending);

void BM_ServerPipeline(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    sim::Server server(engine, 4);
    for (int i = 0; i < 10000; ++i) server.submit(0.001, [] {});
    engine.run();
    benchmark::DoNotOptimize(server.completed());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_ServerPipeline);

void BM_ResourceAcquireRelease(benchmark::State& state) {
  sim::Engine engine;
  sim::Resource resource(engine, 64);
  for (auto _ : state) {
    resource.acquire(8, [&resource] { resource.release(8); });
    engine.run();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ResourceAcquireRelease);

void BM_PlacementSingleCore(benchmark::State& state) {
  platform::Cluster cluster(platform::frontier_spec(),
                            static_cast<int>(state.range(0)));
  const auto range = cluster.all_nodes();
  platform::NodeId cursor = 0;
  std::vector<platform::Placement> held;
  for (auto _ : state) {
    auto placement =
        sched::linear_try_place(cluster, range, {1, 0, 0}, &cursor);
    if (placement) {
      held.push_back(std::move(*placement));
    } else {
      for (auto& p : held) cluster.release(p);
      held.clear();
    }
  }
  for (auto& p : held) cluster.release(p);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlacementSingleCore)->Arg(16)->Arg(1024);

void BM_PlacementMpiChunks(benchmark::State& state) {
  platform::Cluster cluster(platform::frontier_spec(), 256);
  for (auto _ : state) {
    auto placement =
        sched::linear_try_place(cluster, cluster.all_nodes(), {7168, 0, 56});
    benchmark::DoNotOptimize(placement);
    if (placement) cluster.release(*placement);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlacementMpiChunks);

void BM_RngLognormal(benchmark::State& state) {
  sim::RngStream rng(42, "bench");
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.lognormal_mean_cv(0.035, 0.2));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngLognormal);

// A Flux instance's draws: five (mean, cv) pairs in rotation.
void BM_RngLognormalRotating(benchmark::State& state) {
  static constexpr double kPairs[][2] = {
      {0.0011, 0.2}, {0.0023, 0.2}, {0.035, 0.2}, {0.0007, 0.2}, {0.042, 0.1}};
  sim::RngStream rng(42, "bench");
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rng.lognormal_mean_cv(kPairs[next][0], kPairs[next][1]));
    next = next == 4 ? 0 : next + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngLognormalRotating);

void BM_RateSeriesRecord(benchmark::State& state) {
  sim::RateSeries series(1.0);
  double t = 0;
  for (auto _ : state) {
    series.record(t);
    t += 0.01;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RateSeriesRecord);

// One dragon task edge into a reused line, as the journal writer encodes
// it on every task lifecycle change.
void BM_JournalEncodeTransition(benchmark::State& state) {
  std::string line;
  double t = 62.267854373;
  core::TaskId task = 100;
  for (auto _ : state) {
    journal::encode_transition(line, t, task, core::TaskState::kRunning,
                               "dragon", 1);
    benchmark::DoNotOptimize(line.data());
    benchmark::ClobberMemory();
    t += 1.0e-3;
    ++task;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JournalEncodeTransition);

// One node capacity change into a reused line.
void BM_JournalEncodeAlloc(benchmark::State& state) {
  std::string line;
  double t = 62.267854373;
  std::int64_t node = 0;
  for (auto _ : state) {
    journal::encode_alloc(line, t, node, -8, 0);
    benchmark::DoNotOptimize(line.data());
    benchmark::ClobberMemory();
    t += 1.0e-3;
    node = (node + 1) % 9408;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JournalEncodeAlloc);

// Appends 300,000 task edges to a fresh writer, across its segment
// boundaries (4 KiB doubling to ~8 MiB): the writer's per-line cost, from
// encoding through the copy into a segment and each new segment's
// allocation, without the scribe around it.
void BM_JournalWriterAppend(benchmark::State& state) {
  constexpr int kLines = 300'000;
  for (auto _ : state) {
    journal::Writer writer;
    double t = 62.267854373;
    for (int i = 0; i < kLines; ++i) {
      t += 1.0e-3;
      benchmark::DoNotOptimize(writer.append_transition(
          t, static_cast<core::TaskId>(i / 6),
          static_cast<core::TaskState>(i % 10), "dragon", 1));
    }
    benchmark::DoNotOptimize(writer.size());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kLines);
  state.counters["ns_per_line"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kLines,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_JournalWriterAppend)->Unit(benchmark::kMillisecond);

// Decodes a 150,000-record journal, the size perfbench cuts for its
// recovery measurement: a header, then task edges and node changes.
void BM_JournalRead(benchmark::State& state) {
  constexpr int kRecords = 150'000;
  journal::Writer writer;
  writer.append(journal::header_record(42, "tool=bench;workload=micro"));
  double t = 0.0;
  for (int i = 1; i < kRecords; ++i) {
    t += 1.7e-4;
    if (i % 4 == 3) {
      writer.append_alloc(t, i % 64, i % 8 == 3 ? -1 : 1, 0);
    } else {
      writer.append_transition(t, static_cast<core::TaskId>(i / 3),
                               static_cast<core::TaskState>(i % 10),
                               i % 3 == 0 ? "" : "flux", i % 3 == 2);
    }
  }
  const std::string bytes = writer.bytes();
  for (auto _ : state) {
    const auto result = journal::read(bytes);
    benchmark::DoNotOptimize(result.records.data());
  }
  state.SetItemsProcessed(state.iterations() * kRecords);
}
BENCHMARK(BM_JournalRead)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
