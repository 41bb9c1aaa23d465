// Allocation guard for the simulator's per-item service path and the RP
// core's per-task footprint.
//
// This binary replaces the global operator new with a counting one, so it
// can assert that a warm sim::Server runs submit/complete cycles without
// touching the heap: the completion event must fit Callback's inline
// buffer and the server's slot table must be reused, not regrown. The
// same holds for sim::FanOut's holds, whether a later touch retires them
// or materializes them. The counter also tracks live heap bytes, so it can
// bound what a core::TaskManager allocates and holds per task, and what a
// flux::Instance holds per queued job. On the recovery path, a validating
// journal::Scribe must hold no copy of its journal prefix, and
// journal::read() must decode task lines without allocating per line.
//
// Sanitizer builds (-DFLOTILLA_SANITIZE=...) skip it: there the sanitizer
// runtime owns operator new, and replacing it would blind the sanitizer.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "core/flotilla.hpp"
#include "flux/instance.hpp"
#include "ingress/ingress.hpp"
#include "journal/journal.hpp"
#include "journal/record.hpp"
#include "journal/scribe.hpp"
#include "sim/engine.hpp"
#include "sim/server.hpp"

#ifndef FLOTILLA_SANITIZED
#include <malloc.h>
#endif

namespace {

bool g_counting = false;
std::uint64_t g_allocations = 0;
std::uint64_t g_frees = 0;
// Usable bytes of every live block, counted or not.
std::int64_t g_live_bytes = 0;

#ifdef FLOTILLA_SANITIZED
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;

void* counted_alloc(std::size_t size, std::size_t align) {
  if (g_counting) ++g_allocations;
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  g_live_bytes += static_cast<std::int64_t>(malloc_usable_size(p));
  return p;
}

void counted_free(void* p) {
  if (p != nullptr) {
    if (g_counting) ++g_frees;
    g_live_bytes -= static_cast<std::int64_t>(malloc_usable_size(p));
  }
  std::free(p);
}
#endif

}  // namespace

#ifndef FLOTILLA_SANITIZED
void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
#endif

namespace flotilla::sim {

constexpr const char* kSanitizedReason =
    "the sanitizer runtime owns operator new, so the counting replacement "
    "is compiled out";

// Heap allocations made by `body`; g_frees counts the blocks it freed.
template <typename F>
std::uint64_t allocations_in(F&& body) {
  g_allocations = 0;
  g_frees = 0;
  g_counting = true;
  body();
  g_counting = false;
  return g_allocations;
}

namespace {

constexpr int kCycles = 10'000;

// Submits `batch` items (no more than the server's parallelism, so each
// starts at once) and runs them to completion.
void cycle(Engine& engine, Server& server, int batch, int& completed) {
  for (int i = 0; i < batch; ++i) {
    server.submit(1.0e-3, [&completed] { ++completed; });
  }
  engine.run();
}

void expect_warm_cycles_allocate_nothing(int parallelism) {
  Engine engine;
  Server server(engine, parallelism);
  int completed = 0;
  // Warm-up grows the engine's calendar and the server's slot table to
  // their steady-state sizes.
  for (int i = 0; i < 8; ++i) cycle(engine, server, parallelism, completed);
  const std::uint64_t allocations = allocations_in([&] {
    for (int i = 0; i < kCycles; ++i) {
      cycle(engine, server, parallelism, completed);
    }
  });
  EXPECT_EQ(allocations, 0u) << "parallelism " << parallelism;
  EXPECT_EQ(completed, (kCycles + 8) * parallelism);
  EXPECT_TRUE(server.idle());
}

// A two-node fan-out on idle servers: `first` ends before `second`, so
// `first` is a hold and `second` carries the fan-out's one event. With
// `materialize`, a submit lands on `first` while its hold is live, which
// pushes the hold's event at its reserved key; otherwise the hold outlives
// its key and the next cycle's fan-out retires it. Returns the events the
// cycle processed.
std::uint64_t fan_out_cycle(Engine& engine, FanOut& fan, Server& first,
                            Server& second, bool materialize, int& done) {
  const std::uint64_t before = engine.processed();
  fan.add(first, 1.0e-3);
  fan.add(second, 2.0e-3);
  fan.launch([&done] { ++done; });
  if (materialize) first.submit(0.5e-3, [&done] { ++done; });
  engine.run();
  return engine.processed() - before;
}

void expect_warm_fan_outs_allocate_nothing(bool materialize) {
  Engine engine;
  // Parallelism 2, so the submit behind a materialized hold starts at once
  // instead of growing the wait queue.
  Server first(engine, 2);
  Server second(engine, 1);
  FanOut fan;
  int done = 0;
  for (int i = 0; i < 8; ++i) {
    fan_out_cycle(engine, fan, first, second, materialize, done);
  }
  std::uint64_t events = 0;
  const std::uint64_t allocations = allocations_in([&] {
    for (int i = 0; i < kCycles; ++i) {
      events += fan_out_cycle(engine, fan, first, second, materialize, done);
    }
  });
  EXPECT_EQ(allocations, 0u) << "materialize " << materialize;
  const int per_cycle = materialize ? 2 : 1;
  EXPECT_EQ(done, (kCycles + 8) * per_cycle);
  // Retiring: only the carrier fires. Materializing: the hold's event, the
  // submitted item and the carrier.
  EXPECT_EQ(events, static_cast<std::uint64_t>(kCycles) *
                        (materialize ? 3u : 1u));
  EXPECT_EQ(first.completed(),
            static_cast<std::uint64_t>(kCycles + 8) * per_cycle);
  EXPECT_TRUE(first.idle());
  EXPECT_TRUE(second.idle());
}

TEST(AllocGuard, CounterSeesABoxedCallback) {
  if (kSanitized) GTEST_SKIP() << kSanitizedReason;
  // A capture larger than the inline buffer is boxed: proves the counter
  // is live, so a zero below means something.
  struct Big {
    unsigned char bytes[Callback::kInlineSize + 8] = {};
  };
  const std::uint64_t allocations = allocations_in([] {
    Callback boxed([big = Big{}] { (void)big; });
    (void)boxed;
  });
  EXPECT_EQ(allocations, 1u);
}

TEST(AllocGuard, WarmSerialServerAllocatesNothing) {
  if (kSanitized) GTEST_SKIP() << kSanitizedReason;
  expect_warm_cycles_allocate_nothing(1);
}

TEST(AllocGuard, WarmParallelServerAllocatesNothing) {
  if (kSanitized) GTEST_SKIP() << kSanitizedReason;
  expect_warm_cycles_allocate_nothing(4);
}

TEST(AllocGuard, WarmFanOutHoldRetireAllocatesNothing) {
  if (kSanitized) GTEST_SKIP() << kSanitizedReason;
  expect_warm_fan_outs_allocate_nothing(false);
}

TEST(AllocGuard, WarmFanOutHoldMaterializeAllocatesNothing) {
  if (kSanitized) GTEST_SKIP() << kSanitizedReason;
  expect_warm_fan_outs_allocate_nothing(true);
}

}  // namespace
}  // namespace flotilla::sim

namespace flotilla::core {
namespace {

using sim::allocations_in;
using sim::kSanitizedReason;

constexpr int kBulk = 10'000;

std::vector<TaskDescription> null_tasks() {
  TaskDescription desc;
  desc.demand.cores = 1;
  return std::vector<TaskDescription>(kBulk, desc);
}

// A bulk submit stores each task by value in the manager's chunks: no
// per-task heap block, and no intake item per task (the intake is a
// cursor over task positions). What is left is one chunk per 512 tasks
// and the returned uid vector.
TEST(AllocGuard, WarmBulkSubmitStoresCompactTasks) {
  if (kSanitized) GTEST_SKIP() << kSanitizedReason;
  Session session(platform::frontier_spec(), 2, 42);
  PilotManager pmgr(session);
  auto& pilot = pmgr.submit({.nodes = 2, .backends = {{"flux", 1}}});
  bool ready = false;
  pilot.launch([&ready](bool ok, const std::string&) { ready = ok; });
  session.run(240.0);
  ASSERT_TRUE(ready);
  auto tmgr = std::make_unique<TaskManager>(session, pilot.agent());
  // Warm-up: grows the engine's calendar, the agent's slots and the
  // backend's tables to their steady-state sizes.
  tmgr->submit(null_tasks());
  session.run();
  ASSERT_TRUE(tmgr->idle());

  auto batch = null_tasks();
  std::vector<std::string> uids;
  const std::uint64_t allocations =
      allocations_in([&] { uids = tmgr->submit(std::move(batch)); });
  EXPECT_LE(allocations, static_cast<std::uint64_t>(kBulk / 100))
      << "allocations per task: "
      << static_cast<double>(allocations) / kBulk;
  ASSERT_EQ(uids.size(), static_cast<std::size_t>(kBulk));
  session.run();
  ASSERT_TRUE(tmgr->idle());
  ASSERT_EQ(tmgr->submitted(), static_cast<std::size_t>(2 * kBulk));

  // What the manager holds is what its destruction returns.
  const std::int64_t before = g_live_bytes;
  tmgr.reset();
  const double held_per_task =
      static_cast<double>(before - g_live_bytes) / (2 * kBulk);
  EXPECT_GT(held_per_task, 0.0);
  // A Task is 96 bytes with no uid; the rest of its description is a
  // shape interned in the session, which the manager does not own.
  EXPECT_LE(held_per_task, 112.0) << "bytes held per task";
}

// A flux instance holds each job by value in its slot table, and its
// pending queue holds only the job's slot and priority: at most 160 bytes
// per queued job, both counted (~318 with a shared_ptr'd job, a uid-keyed
// map node and a queue entry that copied the uid, gang and demand).
TEST(AllocGuard, FluxInstanceHoldsQueuedJobsCompactly) {
  if (kSanitized) GTEST_SKIP() << kSanitizedReason;
  constexpr int kQueued = 4096;
  sim::Engine engine;
  platform::Cluster cluster(platform::frontier_spec(), 1);
  flux::Instance instance("flux.0", engine, cluster, {0, 1},
                          platform::frontier_calibration().flux, 42);
  std::size_t events = 0;
  instance.on_event([&events](const flux::JobEvent&) { ++events; });
  bool ready = false;
  instance.bootstrap([&ready] { ready = true; });
  engine.run();
  ASSERT_TRUE(ready);

  const std::int64_t before = g_live_bytes;
  for (int i = 0; i < kQueued; ++i) {
    flux::Job job;
    job.id = "task." + std::to_string(100000 + i);  // fits in place
    job.demand.cores = 2 * platform::frontier_spec().cores_per_node;
    instance.submit(std::move(job));
  }
  engine.run();  // every job ingested; none fits the one node
  ASSERT_EQ(instance.queue_depth(), static_cast<std::size_t>(kQueued));
  ASSERT_EQ(events, static_cast<std::size_t>(kQueued));  // kSubmit each
  const double held_per_job =
      static_cast<double>(g_live_bytes - before) / kQueued;
  EXPECT_GT(held_per_job, 0.0);
  EXPECT_LE(held_per_job, 160.0);
}

// Starts each task when it is submitted and completes it after its
// duration, through engine events whose closures fit Callback's inline
// buffer: a backend that allocates nothing per task, so what is counted
// below is the ingress, the TaskManager and the agent.
class InstantBackend : public platform::TaskBackend {
 public:
  InstantBackend(sim::Engine& engine, platform::NodeRange span)
      : engine_(engine), span_(span) {}

  const std::string& name() const override { return name_; }
  bool accepts(platform::TaskModality) const override { return true; }
  platform::NodeRange span() const override { return span_; }
  void bootstrap(ReadyHandler ready) override { ready(true, ""); }
  void submit(platform::LaunchRequest request) override {
    ++inflight_;
    start_(request.id);
    engine_.in(request.duration, [this, id = std::move(request.id)] {
      --inflight_;
      platform::LaunchOutcome outcome;
      outcome.id = id;
      complete_(outcome);
    });
  }
  void on_task_start(StartHandler handler) override {
    start_ = std::move(handler);
  }
  void on_task_complete(CompletionHandler handler) override {
    complete_ = std::move(handler);
  }
  void shutdown() override {}
  bool healthy() const override { return true; }
  std::size_t inflight() const override { return inflight_; }

 private:
  sim::Engine& engine_;
  std::string name_ = "instant";
  platform::NodeRange span_;
  StartHandler start_;
  CompletionHandler complete_;
  std::size_t inflight_ = 0;
};

// A warm ingress runs accept -> commit -> launch -> final with no heap
// allocation per offer: offers live in a reused TaskId-indexed window,
// batches in reused buffers, and the accepted list holds 4-byte ids. One
// closed-loop client keeps a single task in flight, so no sim::Server
// queues (a queued item costs a deque block share). Over the measured
// half of a 2 x 4,096-offer run 13 allocations are left: the
// TaskManager's task chunks (one per 512 tasks) and one regrowth each of
// what grows with history (the chunk list, the agent's slots, the
// accepted list, the profiler's per-second throughput bins). The
// uid-keyed maps this replaced cost ~5 allocations per offer.
TEST(AllocGuard, WarmIngressCycleAllocatesNothingPerOffer) {
  if (kSanitized) GTEST_SKIP() << kSanitizedReason;
  constexpr int kOffers = 4096;
  Session session(platform::frontier_spec(), 4, 42);
  ASSERT_FALSE(session.trace_handle().enabled());
  const platform::NodeRange nodes{0, 4};
  Agent agent(session, nodes);
  agent.add_backend(std::make_unique<InstantBackend>(session.engine(), nodes),
                    0.0);
  bool ready = false;
  agent.bootstrap([&ready](bool ok, const std::string&) { ready = ok; });
  session.run();
  ASSERT_TRUE(ready);
  TaskManager tmgr(session, agent);
  ingress::IngressConfig config;
  config.clients = 1;
  config.arrival.kind = ingress::ArrivalKind::kClosed;
  config.arrival.think = 2e-3;
  config.total_offers = 2 * kOffers;
  ingress::IngressService service(session, tmgr, config);
  TaskDescription proto;
  proto.demand.cores = 1;
  proto.duration = 0.5;
  proto.modality = platform::TaskModality::kFunction;
  service.start({proto});
  // Warm-up: the first half grows every table to its steady-state size.
  while (service.stats().completed < static_cast<std::uint64_t>(kOffers)) {
    ASSERT_TRUE(session.engine().step());
  }
  const std::uint64_t allocations = allocations_in([&] { session.run(); });
  const auto stats = service.stats();
  ASSERT_TRUE(stats.conserved());
  ASSERT_EQ(stats.completed, static_cast<std::uint64_t>(2 * kOffers));
  ASSERT_EQ(stats.launched, stats.completed);
  EXPECT_EQ(service.window_size(), 0u);
  EXPECT_LE(allocations, static_cast<std::uint64_t>(kOffers / 256))
      << "allocations per offer: "
      << static_cast<double>(allocations) / kOffers;
}

}  // namespace
}  // namespace flotilla::core

namespace flotilla::journal {
namespace {

using sim::allocations_in;
using sim::kSanitizedReason;

constexpr int kLines = 10'000;

// A journal of task edges like a recovering controller reads: a header,
// then kLines - 1 edges with short (in-place) backend names.
std::string task_journal() {
  Writer writer;
  writer.append(header_record(42, "tool=alloc_guard"));
  for (int i = 1; i < kLines; ++i) {
    writer.append_transition(1.0e-3 * i, static_cast<core::TaskId>(i / 4),
                             static_cast<core::TaskState>(i % 10),
                             i % 2 == 0 ? "" : "flux", i % 3);
  }
  return writer.bytes();
}

// A validating scribe borrows the prefix it checks against: building one
// allocates and holds no more than a record-mode scribe (a scribe that
// copied its prefix held ~2 MB more here).
TEST(AllocGuard, ValidatingScribeBorrowsItsPrefix) {
  if (kSanitized) GTEST_SKIP() << kSanitizedReason;
  const ReadResult journal = read(task_journal());
  ASSERT_TRUE(journal.intact());
  ASSERT_EQ(journal.records.size(), static_cast<std::size_t>(kLines));
  core::Session session(platform::frontier_spec(), 64, 42);

  const auto cost = [&](auto make) {
    std::int64_t held = 0;
    const std::uint64_t allocations = allocations_in([&] {
      const std::int64_t before = g_live_bytes;
      const auto scribe = make();
      held = g_live_bytes - before;
    });
    return std::pair{allocations, held};
  };
  const auto [record_allocations, record_held] =
      cost([&] { return std::make_unique<Scribe>(session); });
  const auto [validate_allocations, validate_held] = cost(
      [&] { return std::make_unique<Scribe>(session, journal.records); });
  EXPECT_LE(validate_allocations, record_allocations);
  EXPECT_LE(validate_held, record_held);
}

// The writer appends into segments that are never reallocated, each
// twice the last: 300,000 task lines (~10 MB) allocate a dozen segments
// and free nothing, so the line the first append returned still reads
// the same bytes at the end. bytes() assembles exactly the lines
// appended, in order.
TEST(AllocGuard, WriterNeverMovesWrittenBytes) {
  if (kSanitized) GTEST_SKIP() << kSanitizedReason;
  constexpr int kAppends = 300'000;
  Writer writer;
  std::vector<std::string_view> lines;
  lines.reserve(kAppends + 1);
  lines.push_back(writer.append(header_record(42, "tool=alloc_guard")));
  const std::string first(lines.front());
  const std::uint64_t allocations = allocations_in([&] {
    for (int i = 0; i < kAppends; ++i) {
      lines.push_back(writer.append_transition(
          1.0e-3 * i, static_cast<core::TaskId>(i / 4),
          static_cast<core::TaskState>(i % 10), i % 2 == 0 ? "" : "dragon",
          i % 3));
    }
  });
  EXPECT_EQ(g_frees, 0u);
  EXPECT_GE(allocations, 8u);   // several segments
  EXPECT_LE(allocations, 14u);  // log2(10 MB / 4 KiB) + 1, no regrowth
  EXPECT_EQ(lines.front(), first);
  std::string concatenated;
  for (const std::string_view line : lines) concatenated += line;
  EXPECT_EQ(writer.size(), concatenated.size());
  EXPECT_EQ(writer.records(), lines.size());
  EXPECT_EQ(writer.bytes(), concatenated);
}

// Decoding allocates the record vector and nothing per line: a backend
// name fits a std::string in place, and a line that decodes sets no error.
TEST(AllocGuard, ReadDecodesTaskLinesWithoutPerLineAllocations) {
  if (kSanitized) GTEST_SKIP() << kSanitizedReason;
  const std::string bytes = task_journal();
  ReadResult result;
  const std::uint64_t allocations =
      allocations_in([&] { result = read(bytes); });
  ASSERT_TRUE(result.intact());
  ASSERT_EQ(result.records.size(), static_cast<std::size_t>(kLines));
  EXPECT_EQ(result.records.back().backend, "flux");
  EXPECT_LE(allocations, 2u);
}

}  // namespace
}  // namespace flotilla::journal
