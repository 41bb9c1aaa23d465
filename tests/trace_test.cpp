// src/obs: tracer ring-buffer semantics, span invariants over a real
// session, exporter well-formedness and determinism, and the
// OverheadReport identity against hand-computed spans.
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/flotilla.hpp"
#include "obs/export.hpp"
#include "obs/report.hpp"
#include "obs/tracer.hpp"

namespace flotilla::obs {
namespace {

// ---------------------------------------------------------------------------
// Ring buffer overflow policy.

TEST(TracerRing, DropOldestKeepsNewestRecords) {
  sim::Engine engine;
  Tracer tracer(engine, 4);
  for (int i = 0; i < 10; ++i) {
    tracer.instant(SpanType::kRouting, "c", std::to_string(i));
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.capacity(), 4u);
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  // Retained records are the newest four, oldest-first.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(tracer.at(i).entity, std::to_string(6 + i));
  }
}

TEST(TracerRing, NoDropBelowCapacity) {
  sim::Engine engine;
  Tracer tracer(engine, 8);
  tracer.begin(SpanType::kTaskRun, "c", "t");
  tracer.end(SpanType::kTaskRun, "c", "t");
  EXPECT_EQ(tracer.size(), 2u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.at(0).kind, RecordKind::kBegin);
  EXPECT_EQ(tracer.at(1).kind, RecordKind::kEnd);
}

TEST(TracerRing, ClearResets) {
  sim::Engine engine;
  Tracer tracer(engine, 2);
  for (int i = 0; i < 5; ++i) tracer.instant(SpanType::kRouting, "c", "e");
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.digest(), Tracer(engine, 2).digest());
}

TEST(TracerHandle, NullHandleIsInert) {
  TraceHandle handle;
  EXPECT_FALSE(handle.enabled());
  // Must not crash.
  handle.begin(SpanType::kTaskRun, "c", "t");
  handle.end(SpanType::kTaskRun, "c", "t");
  handle.instant(SpanType::kRouting, "c", "t");
  handle.counter("c", "n", 1.0);
}

// ---------------------------------------------------------------------------
// Session helper: a small traced run.

core::Session make_session(std::uint64_t seed) {
  return core::Session(platform::frontier_spec(), 4, seed);
}

// Runs `tasks` one-core tasks through `backend` with tracing on and
// returns the session (whose tracer holds the trace).
std::string run_traced(const std::string& backend, std::uint64_t seed,
                       int tasks, bool prof, Tracer** out_tracer = nullptr,
                       core::Session* session_out = nullptr) {
  core::Session local_session = make_session(seed);
  core::Session& session = session_out ? *session_out : local_session;
  session.enable_tracing();
  core::PilotManager pmgr(session);
  core::PilotDescription desc;
  desc.nodes = 4;
  if (backend == "hybrid") {
    desc.backends = {{.type = "flux", .partitions = 1, .nodes = 2},
                     {.type = "dragon", .partitions = 1, .nodes = 2}};
  } else if (backend == "flux") {
    desc.backends = {{.type = "flux", .partitions = 2}};
  } else {
    desc.backends = {{backend}};
  }
  auto& pilot = pmgr.submit(std::move(desc));
  pilot.launch([](bool ok, const std::string&) { EXPECT_TRUE(ok); });
  session.run(240.0);
  core::TaskManager tmgr(session, pilot.agent());
  tmgr.on_complete([](const core::Task&) {});
  for (int i = 0; i < tasks; ++i) {
    core::TaskDescription task;
    task.demand.cores = 1;
    task.duration = 5.0;
    tmgr.submit(std::move(task));
  }
  session.run();
  if (out_tracer) *out_tracer = session.tracer();
  std::ostringstream os;
  if (prof) {
    write_prof(*session.tracer(), os);
  } else {
    write_chrome_trace(*session.tracer(), os);
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Span nesting / ordering invariants over a real run.

TEST(TraceInvariants, TimesMonotoneAndSpansBalanced) {
  core::Session session = make_session(7);
  std::string ignored = run_traced("flux", 7, 40, /*prof=*/false, nullptr,
                                   &session);
  const Tracer& tracer = *session.tracer();
  ASSERT_GT(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);

  sim::Time last = 0.0;
  // Open-begin depth per (type, component, entity).
  std::map<std::tuple<int, std::string, std::string>, int> depth;
  tracer.for_each([&](const Record& record) {
    EXPECT_GE(record.time, last) << "virtual time went backwards";
    last = record.time;
    const auto key = std::make_tuple(static_cast<int>(record.type),
                                     record.component, record.entity);
    if (record.kind == RecordKind::kBegin) {
      ++depth[key];
    } else if (record.kind == RecordKind::kEnd) {
      // An end must close a previously opened begin of the same key.
      EXPECT_GT(depth[key], 0)
          << "end without begin: " << to_string(record.type) << " "
          << record.component << "/" << record.entity;
      --depth[key];
    }
  });
  for (const auto& [key, open] : depth) {
    EXPECT_EQ(open, 0) << "unclosed span: " << std::get<1>(key) << "/"
                       << std::get<2>(key);
  }
}

TEST(TraceInvariants, TaskLifecycleOrdering) {
  core::Session session = make_session(11);
  run_traced("srun", 11, 20, /*prof=*/false, nullptr, &session);
  const Tracer& tracer = *session.tracer();

  // Per task uid: submit-begin <= schedule-begin <= launch-begin <=
  // run-begin <= run-end <= collect-end.
  struct Times {
    sim::Time submit = -1, schedule = -1, launch = -1, run_begin = -1,
              run_end = -1, collect_end = -1;
  };
  std::map<std::string, Times> tasks;
  tracer.for_each([&](const Record& r) {
    if (r.entity.empty()) return;
    auto& t = tasks[r.entity];
    if (r.kind == RecordKind::kBegin) {
      if (r.type == SpanType::kTaskSubmit) t.submit = r.time;
      if (r.type == SpanType::kTaskSchedule) t.schedule = r.time;
      if (r.type == SpanType::kTaskLaunch) t.launch = r.time;
      if (r.type == SpanType::kTaskRun) t.run_begin = r.time;
    } else if (r.kind == RecordKind::kEnd) {
      if (r.type == SpanType::kTaskRun) t.run_end = r.time;
      if (r.type == SpanType::kTaskCollect) t.collect_end = r.time;
    }
  });
  int complete = 0;
  for (const auto& [uid, t] : tasks) {
    if (t.submit < 0) continue;  // non-task entities
    ++complete;
    EXPECT_LE(t.submit, t.schedule) << uid;
    EXPECT_LE(t.schedule, t.launch) << uid;
    EXPECT_LE(t.launch, t.run_begin) << uid;
    EXPECT_LE(t.run_begin, t.run_end) << uid;
    EXPECT_LE(t.run_end, t.collect_end) << uid;
  }
  EXPECT_EQ(complete, 20);
}

// ---------------------------------------------------------------------------
// Chrome trace JSON well-formedness: a tiny JSON parser (objects, arrays,
// strings, numbers, literals) that accepts exactly well-formed input.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::string w(word);
    if (text_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }
  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

TEST(ChromeTrace, WellFormedJsonRoundTrip) {
  const auto json = run_traced("hybrid", 21, 30, /*prof=*/false);
  ASSERT_FALSE(json.empty());
  EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
  // Structural markers Perfetto relies on.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
}

TEST(ChromeTrace, EmptyTracerStillWellFormed) {
  sim::Engine engine;
  Tracer tracer(engine, 4);
  std::ostringstream os;
  write_chrome_trace(tracer, os);
  EXPECT_TRUE(JsonChecker(os.str()).valid()) << os.str();
}

// ---------------------------------------------------------------------------
// Running digest: the run fingerprint of the determinism and recovery
// oracles (check::RunResult::fingerprint).

// The digest of a tracer that saw exactly one record, pushed at `time`.
std::uint64_t one_record_digest(sim::Time time, RecordKind kind,
                                SpanType type, const std::string& component,
                                const std::string& entity, double value) {
  sim::Engine engine;
  Tracer tracer(engine, 1);
  engine.at(time, [&] {
    switch (kind) {
      case RecordKind::kBegin:
        tracer.begin(type, component, entity, value);
        break;
      case RecordKind::kEnd:
        tracer.end(type, component, entity, value);
        break;
      case RecordKind::kInstant:
        tracer.instant(type, component, entity, value);
        break;
      case RecordKind::kCounter:
        tracer.counter(component, entity, value);
        break;
    }
  });
  engine.run();
  EXPECT_EQ(tracer.recorded(), 1u);
  return tracer.digest();
}

TEST(TracerDigest, EveryRecordFieldMovesTheDigest) {
  const auto base = one_record_digest(1.0, RecordKind::kInstant,
                                      SpanType::kRouting, "agent", "task.1",
                                      2.0);
  const std::vector<std::pair<const char*, std::uint64_t>> variants = {
      {"time", one_record_digest(1.5, RecordKind::kInstant,
                                 SpanType::kRouting, "agent", "task.1", 2.0)},
      {"kind", one_record_digest(1.0, RecordKind::kBegin, SpanType::kRouting,
                                 "agent", "task.1", 2.0)},
      {"type", one_record_digest(1.0, RecordKind::kInstant,
                                 SpanType::kTaskState, "agent", "task.1",
                                 2.0)},
      {"component", one_record_digest(1.0, RecordKind::kInstant,
                                      SpanType::kRouting, "agenu", "task.1",
                                      2.0)},
      {"entity", one_record_digest(1.0, RecordKind::kInstant,
                                   SpanType::kRouting, "agent", "task.2",
                                   2.0)},
      {"value", one_record_digest(1.0, RecordKind::kInstant,
                                  SpanType::kRouting, "agent", "task.1",
                                  3.0)},
      // The component/entity boundary is part of the record.
      {"boundary", one_record_digest(1.0, RecordKind::kInstant,
                                     SpanType::kRouting, "agentt", "ask.1",
                                     2.0)},
  };
  for (const auto& [field, digest] : variants) {
    EXPECT_NE(digest, base) << field;
  }
  sim::Engine engine;
  EXPECT_NE(base, Tracer(engine, 1).digest());  // the empty stream
}

struct DigestRun {
  std::uint64_t digest = 0;
  std::uint64_t dropped = 0;
  std::size_t task_states = 0;  // retained kTaskState instants
  std::size_t final_done = 0;   // ... whose value is kDone
};

// 30 tasks through flux + dragon with tracing at `capacity`.
DigestRun run_digest(std::size_t capacity, bool trace_tasks) {
  core::Session session = make_session(42);
  const Tracer& tracer = session.enable_tracing(capacity);
  core::PilotManager pmgr(session);
  core::PilotDescription desc;
  desc.nodes = 4;
  desc.backends = {{.type = "flux", .partitions = 1, .nodes = 2},
                   {.type = "dragon", .partitions = 1, .nodes = 2}};
  desc.trace_tasks = trace_tasks;
  auto& pilot = pmgr.submit(std::move(desc));
  pilot.launch([](bool ok, const std::string&) { EXPECT_TRUE(ok); });
  session.run(240.0);
  core::TaskManager tmgr(session, pilot.agent());
  tmgr.on_complete([](const core::Task&) {});
  for (int i = 0; i < 30; ++i) {
    core::TaskDescription task;
    task.demand.cores = 1;
    task.duration = 5.0;
    task.modality = (i % 2 == 0) ? platform::TaskModality::kExecutable
                                 : platform::TaskModality::kFunction;
    tmgr.submit(std::move(task));
  }
  session.run();
  DigestRun run{tracer.digest(), tracer.dropped()};
  tracer.for_each([&](const Record& r) {
    if (r.type != SpanType::kTaskState) return;
    ++run.task_states;
    if (r.value == static_cast<double>(core::TaskState::kDone)) {
      ++run.final_done;
    }
  });
  return run;
}

TEST(TracerDigest, IndependentOfRingCapacity) {
  const auto tiny = run_digest(1, /*trace_tasks=*/true);
  const auto full = run_digest(Tracer::kDefaultCapacity, true);
  EXPECT_GT(tiny.dropped, 0u);
  EXPECT_EQ(full.dropped, 0u);
  EXPECT_EQ(tiny.digest, full.digest);
}

TEST(TracerDigest, TaskStateInstantsOnlyWithPerTaskTracing) {
  const auto off = run_digest(Tracer::kDefaultCapacity, false);
  const auto on = run_digest(Tracer::kDefaultCapacity, true);
  EXPECT_EQ(off.task_states, 0u);
  // Every task passes several states and ends kDone exactly once.
  EXPECT_GT(on.task_states, 30u * 3);
  EXPECT_EQ(on.final_done, 30u);
  EXPECT_NE(on.digest, off.digest);
  EXPECT_EQ(to_string(SpanType::kTaskState), "task_state");
}

// ---------------------------------------------------------------------------
// Exporter determinism.

TEST(ProfExport, ByteIdenticalForSameSeed) {
  const auto a = run_traced("hybrid", 42, 50, /*prof=*/true);
  const auto b = run_traced("hybrid", 42, 50, /*prof=*/true);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.compare(0, 15, "#flotilla-prof,"), 0);
}

TEST(ProfExport, DivergesAcrossSeeds) {
  const auto a = run_traced("hybrid", 42, 50, /*prof=*/true);
  const auto b = run_traced("hybrid", 43, 50, /*prof=*/true);
  EXPECT_NE(a, b);
}

TEST(ChromeTrace, ByteIdenticalForSameSeed) {
  const auto a = run_traced("flux", 5, 25, /*prof=*/false);
  const auto b = run_traced("flux", 5, 25, /*prof=*/false);
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// OverheadReport identity: hand-built trace for a 3-task scenario with
// known span durations; the report must reproduce them exactly.

TEST(OverheadReport, MatchesHandComputedSpans) {
  sim::Engine engine;
  Tracer tracer(engine);
  TraceHandle trace(&tracer);

  // Backend bootstrap: flux.0 takes 20 s, dragon 9 s.
  trace.begin(SpanType::kBootstrap, "flux.0", "");
  trace.begin(SpanType::kBootstrap, "dragon", "");
  engine.in(9.0, [&] { trace.end(SpanType::kBootstrap, "dragon", ""); });
  engine.in(20.0, [&] { trace.end(SpanType::kBootstrap, "flux.0", ""); });

  // Three tasks: queue waits of 1, 2 and 3 s; schedule spans of 0.5 s
  // each; submit spans of 0.25 s each; collect spans of 0.1 s each.
  for (int i = 0; i < 3; ++i) {
    const std::string uid = "task." + std::to_string(i);
    const double base = 30.0 + 10.0 * i;
    engine.at(base, [&, uid] {
      trace.begin(SpanType::kTaskSubmit, "tmgr", uid);
      trace.begin(SpanType::kTaskSchedule, "agent", uid);
    });
    engine.at(base + 0.25,
              [&, uid] { trace.end(SpanType::kTaskSubmit, "tmgr", uid); });
    engine.at(base + 0.5,
              [&, uid] { trace.end(SpanType::kTaskSchedule, "agent", uid); });
    engine.at(base + 0.5, [&, uid] {
      trace.begin(SpanType::kTaskQueueWait, "flux.0", uid);
    });
    engine.at(base + 0.5 + (i + 1), [&, uid] {
      trace.end(SpanType::kTaskQueueWait, "flux.0", uid);
      trace.begin(SpanType::kTaskCollect, "agent", uid);
    });
    engine.at(base + 0.6 + (i + 1), [&, uid] {
      trace.end(SpanType::kTaskCollect, "agent", uid);
    });
  }
  engine.run();

  const auto report = OverheadReport::from_trace(tracer);
  EXPECT_EQ(report.unmatched_ends(), 0u);
  EXPECT_EQ(report.unclosed_begins(), 0u);

  // Fig 7 launch overheads per backend.
  EXPECT_DOUBLE_EQ(report.backend_launch_overhead("flux"), 20.0);
  EXPECT_DOUBLE_EQ(report.backend_launch_overhead("dragon"), 9.0);

  // Scheduler wait: queue waits 1+2+3 plus schedule spans 3 * 0.5.
  EXPECT_NEAR(report.scheduler_wait_total(), 6.0 + 1.5, 1e-9);

  // RP core: submit 3*0.25 + schedule 3*0.5 + collect 3*0.1.
  EXPECT_NEAR(report.rp_core_total(), 0.75 + 1.5 + 0.3, 1e-9);

  const auto waits = report.stats(SpanType::kTaskQueueWait, "flux.0");
  EXPECT_EQ(waits.count, 3u);
  EXPECT_DOUBLE_EQ(waits.min, 1.0);
  EXPECT_DOUBLE_EQ(waits.max, 3.0);
  EXPECT_DOUBLE_EQ(waits.mean(), 2.0);
}

TEST(OverheadReport, CountsUnmatchedRecords) {
  sim::Engine engine;
  Tracer tracer(engine);
  TraceHandle trace(&tracer);
  trace.begin(SpanType::kBootstrap, "dragon", "");  // never closed
  trace.end(SpanType::kTaskRun, "flux.0", "ghost");  // never opened
  engine.run();
  const auto report = OverheadReport::from_trace(tracer);
  EXPECT_EQ(report.unclosed_begins(), 1u);
  EXPECT_EQ(report.unmatched_ends(), 1u);
}

TEST(OverheadReport, SurfacesRingDrops) {
  sim::Engine engine;
  Tracer tracer(engine, /*capacity=*/4);
  TraceHandle trace(&tracer);
  for (int i = 0; i < 6; ++i) {
    trace.instant(SpanType::kPlacementAttempt, "flux.0", "", 0.0);
  }
  const auto report = OverheadReport::from_trace(tracer);
  EXPECT_EQ(report.dropped(), 2u);
  EXPECT_EQ(report.instants(SpanType::kPlacementAttempt, "flux.0"), 4u);
  std::ostringstream text;
  report.print(text);
  EXPECT_NE(text.str().find("WARNING: trace ring dropped 2 oldest records; "
                            "counts are partial\n"),
            std::string::npos)
      << text.str();

  // A ring that kept everything prints no warning.
  Tracer roomy(engine, /*capacity=*/8);
  TraceHandle(&roomy).instant(SpanType::kPlacementAttempt, "flux.0", "");
  const auto full = OverheadReport::from_trace(roomy);
  EXPECT_EQ(full.dropped(), 0u);
  std::ostringstream quiet;
  full.print(quiet);
  EXPECT_EQ(quiet.str().find("WARNING"), std::string::npos) << quiet.str();
}

}  // namespace
}  // namespace flotilla::obs
