// perfbench-driver: runs one benchmark workload and prints one JSON line.
//
//   perfbench-driver timed --workload W --seed S --budget SECONDS
//                          --journal-file PATH
//       Rounds until the budget is spent, each one timed campaign (its
//       set-up, and its host seconds from first submit to drain), further
//       set-ups, and one recovery from the campaign's journal cut at the
//       workload's crash record (written to PATH, read back by every
//       recovery). Round 0 is a warm-up whose campaign gives the peak
//       resident memory.
//   perfbench-driver trace --workload W --seed S --journal-file PATH
//       The per-layer split: seam timing on a hand-built, decorated stack,
//       isolation replays, differential runs, and one recovery that runs on
//       past the crash point under the recovery oracle (see
//       perfbench/README.md).
//
// The driver only reports; perfbench/run.py turns its output into the
// benchmark's metrics.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign.hpp"
#include "flux/flux_backend.hpp"
#include "journal/recovery.hpp"
#include "seams.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string num(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// A flat JSON object, written in insertion order.
class Json {
 public:
  Json& add(const std::string& key, double value) {
    return raw(key, num(value));
  }
  Json& add(const std::string& key, const std::string& value) {
    return raw(key, quote(value));
  }
  Json& add(const std::string& key, const std::vector<double>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      out += (i ? "," : "") + num(values[i]);
    }
    return raw(key, out + "]");
  }
  Json& add(const std::string& key, const std::vector<std::string>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      out += (i ? "," : "") + quote(values[i]);
    }
    return raw(key, out + "]");
  }
  Json& raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "" : ", ") + quote(key) + ": " + value;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

Json fingerprint_json(const Fingerprint& fp) {
  Json j;
  j.add("submitted", static_cast<double>(fp.submitted))
      .add("done", static_cast<double>(fp.done))
      .add("failed", static_cast<double>(fp.failed))
      .add("makespan", fp.makespan)
      .add("avg_tput", fp.avg_tput)
      .add("peak_tput", fp.peak_tput)
      .add("core_util", fp.core_util)
      .add("gpu_util", fp.gpu_util)
      .add("offered", static_cast<double>(fp.offered))
      .add("accepted", static_cast<double>(fp.accepted))
      .add("served_tput", fp.served_tput)
      .add("p50", fp.p50)
      .add("p99", fp.p99);
  return j;
}

// Operations of a drained campaign that did not end DONE, or the reason
// its accounting is off.
std::size_t failed_operations(const Fingerprint& fp, std::size_t ops,
                              std::vector<std::string>& errors) {
  const std::uint64_t expected = fp.offered ? fp.accepted : fp.submitted;
  if (fp.offered && fp.offered != ops) {
    errors.push_back("offered " + std::to_string(fp.offered) + " != " +
                     std::to_string(ops));
  }
  if (expected != ops || fp.done + fp.failed != expected || fp.failed) {
    errors.push_back("expected done == submitted, none failed: " + fp.str());
  }
  return fp.done >= ops ? 0 : ops - static_cast<std::size_t>(fp.done);
}

// ---------------------------------------------------------------- recovery

// The first `records` lines of a journal.
std::string cut(const std::string& bytes, std::size_t records) {
  std::size_t pos = 0;
  for (std::size_t i = 0; i < records; ++i) {
    pos = bytes.find('\n', pos);
    if (pos == std::string::npos) return bytes;
    ++pos;
  }
  return bytes.substr(0, pos);
}

// The journal of an uninterrupted campaign, up to `records` records.
std::string journal_prefix(const WorkloadSpec& spec, std::uint64_t seed,
                           std::size_t records,
                           std::vector<std::string>& errors) {
  Stack stack;
  StackOptions options;
  options.seed = seed;
  options.journal = true;
  set_up(stack, spec, options);
  submit(stack);
  auto& engine = stack.engine();
  auto* scribe = stack.scribe.get();
  engine.set_post_event_hook([&engine, scribe, records] {
    if (scribe->records() >= records) engine.stop();
  });
  engine.run();
  if (scribe->records() < records) {
    errors.push_back("campaign ended after " +
                     std::to_string(scribe->records()) + " journal records");
  }
  return cut(scribe->writer().bytes(), records);
}

void write_file(const std::string& path, const std::string& bytes,
                std::vector<std::string>& errors) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  if (!out.flush()) errors.push_back("cannot write " + path);
}

struct Recovery {
  double total_s = 0.0;  // read + parse + re-execution to the crash point
  double parse_s = 0.0;  // read + parse
  std::size_t records = 0;
};

// Recovers the campaign whose journal, cut at spec.crash_record, is in
// `path`: reads and parses it (RecoveryManager), then re-executes with a
// validating scribe until Scribe::replay_complete(). With a non-empty
// `reference` the run goes on to reference's length and must write exactly
// those bytes: the recovery oracle, applied from outside.
Recovery recover(const WorkloadSpec& spec, std::uint64_t seed,
                 const std::string& path, const std::string& reference,
                 std::vector<std::string>& errors) {
  Recovery result;
  const auto t0 = Clock::now();
  std::ifstream in(path, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  flotilla::journal::RecoveryManager manager(bytes.str());
  result.parse_s = since(t0);
  result.records = manager.prefix().size();
  if (!in || manager.seed() != seed ||
      manager.spec_line() != settings_line(spec, seed) ||
      manager.truncated() || result.records != spec.crash_record) {
    errors.push_back("the cut journal's header or length did not survive");
    return result;
  }
  Stack stack;
  StackOptions options;
  options.seed = seed;
  options.recover_prefix = &manager.prefix();
  set_up(stack, spec, options);
  submit(stack);
  auto& engine = stack.engine();
  auto* scribe = stack.scribe.get();
  auto run_while = [&engine, scribe](auto more) {
    engine.set_post_event_hook([&engine, scribe, more] {
      if (!more(*scribe)) engine.stop();
    });
    if (more(*scribe)) engine.run();
  };
  run_while([](const flotilla::journal::Scribe& s) {
    return !s.replay_complete();
  });
  result.total_s = since(t0);
  if (scribe->diverged()) {
    errors.push_back("replay diverged at journal record " +
                     std::to_string(scribe->divergence().index));
  } else if (!scribe->replay_complete()) {
    errors.push_back("replay ended before the crash point");
  } else if (!reference.empty()) {
    const std::size_t horizon =
        static_cast<std::size_t>(std::count(reference.begin(), reference.end(),
                                            '\n'));
    run_while([horizon](const flotilla::journal::Scribe& s) {
      return s.records() < horizon;
    });
    if (cut(scribe->writer().bytes(), horizon) != reference) {
      errors.push_back("the recovered journal differs from the "
                       "uninterrupted one");
    }
  }
  return result;
}

// ---------------------------------------------------------------- timed

// The process's peak resident memory so far, in KiB.
double peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

// Moves the calling thread round the CPUs it may run on, a few times per
// second, for as long as it lives: host speed differs between CPUs, and
// every sample then averages over all of them instead of depending on
// where the scheduler happened to leave the process.
class CpuRotation {
 public:
  CpuRotation() : thread_(gettid()) {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
    }
    if (cpus_.size() > 1) rotator_ = std::thread([this] { rotate(); });
  }
  ~CpuRotation() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    if (rotator_.joinable()) rotator_.join();
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  void rotate() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (std::size_t i = 0;; ++i) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpus_[i % cpus_.size()], &set);
      sched_setaffinity(thread_, sizeof set, &set);
      if (wake_.wait_for(lock, std::chrono::milliseconds(50),
                         [this] { return stop_; })) {
        return;
      }
    }
  }

  const pid_t thread_;
  std::vector<int> cpus_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::thread rotator_;
};

int run_timed(const WorkloadSpec& spec, std::uint64_t seed, double budget,
              const std::string& journal_path) {
  std::vector<std::string> errors;
  std::vector<double> setup_s, host_s, recover_s;
  double rss_kb = 0.0;
  StackOptions options;
  options.seed = seed;
  options.journal = spec.journaled;

  // Host speed drifts over seconds, so every metric samples the whole
  // window: each round is one campaign, set-ups and one recovery. Round 0
  // warms the process up (its first-touch costs would skew the medians)
  // and is the one whose peak memory is reported. Rounds stop when the
  // next one would overrun the budget.
  const CpuRotation rotation;
  std::size_t ops = 0, attempted = 0, failed = 0;
  Fingerprint first;
  const auto start = Clock::now();
  double round_s = 0.0;
  for (std::size_t round = 0;
       errors.empty() &&
       (round < 4 || (round < 50 && since(start) + round_s <= budget));
       ++round) {
    const auto round_start = Clock::now();
    double wall = 0.0;
    {
      Stack stack;
      const auto s0 = Clock::now();
      set_up(stack, spec, options);
      const double setup = since(s0);
      const auto t0 = Clock::now();
      submit(stack);
      stack.session->run();
      wall = since(t0);
      if (round > 0) {
        setup_s.push_back(setup);
        host_s.push_back(wall);
      }
      if (stack.scribe) {
        const auto& metrics = stack.agent->profiler().metrics();
        stack.scribe->record_end(
            static_cast<std::int64_t>(metrics.tasks_done()),
            static_cast<std::int64_t>(metrics.tasks_failed()), 0,
            stack.engine().processed());
      }
      const auto fp = fingerprint(stack);
      ops = operations(stack);
      attempted += ops;
      const auto before = errors.size();
      std::size_t rep_failed = failed_operations(fp, ops, errors);
      if (round == 0) {
        first = fp;
      } else if (!(fp == first)) {
        errors.push_back("fingerprint differs between repetitions: " +
                         first.str() + " vs " + fp.str());
      }
      if (errors.size() != before) rep_failed = ops;
      failed += rep_failed;
    }
    if (round == 0) {
      // The peak of a process that has run one campaign and nothing else.
      rss_kb = peak_rss_kb();
      write_file(journal_path,
                 journal_prefix(spec, seed, spec.crash_record, errors),
                 errors);
    }
    // Set-up is short, so its median needs many samples; a tenth of the
    // campaign's time spreads them over several CPU rotations.
    double spent = 0.0;
    for (int i = 0; round > 0 && (i < 10 || spent < 0.1 * wall); ++i) {
      Stack bare;
      const auto s0 = Clock::now();
      set_up(bare, spec, options);
      setup_s.push_back(since(s0));
      spent += setup_s.back();
    }
    if (errors.empty()) {
      const double s = recover(spec, seed, journal_path, "", errors).total_s;
      if (round > 0) recover_s.push_back(s);
    }
    round_s = since(round_start);
  }
  std::remove(journal_path.c_str());

  Json out;
  out.add("mode", std::string("timed"))
      .add("workload", std::string(spec.name))
      .add("seed", static_cast<double>(seed))
      .add("operations", static_cast<double>(ops))
      .add("attempted", static_cast<double>(attempted))
      .add("failed", static_cast<double>(failed))
      .add("crash_record", static_cast<double>(spec.crash_record))
      .add("setup_s", setup_s)
      .add("host_s", host_s)
      .add("peak_rss_kb", rss_kb)
      .add("recover_s", recover_s)
      .raw("fingerprint", fingerprint_json(first).str())
      .add("errors", errors);
  std::cout << out.str() << std::endl;
  return 0;
}

// ---------------------------------------------------------------- trace

struct PlainRun {
  double wall_s = 0.0;
  std::uint64_t events = 0;
  Fingerprint fp;
};

// One campaign on the public Pilot path, timed like a timed round.
PlainRun plain_run(const WorkloadSpec& spec, StackOptions options,
                   Stack* keep = nullptr) {
  Stack local;
  Stack& stack = keep ? *keep : local;
  set_up(stack, spec, options);
  PlainRun run;
  const auto before = stack.engine().processed();
  const auto t0 = Clock::now();
  submit(stack);
  stack.session->run();
  run.wall_s = since(t0);
  run.events = stack.engine().processed() - before;
  run.fp = fingerprint(stack);
  return run;
}

// Counts every node capacity change, whoever makes it.
class NodeChangeCounter : public flotilla::platform::Cluster::Observer {
 public:
  void node_changed(flotilla::platform::NodeId) override { ++changes; }
  std::uint64_t changes = 0;
};

int run_trace(const WorkloadSpec& spec, std::uint64_t seed,
              const std::string& journal_path) {
  const auto trace_start = Clock::now();
  std::vector<std::string> errors;
  std::map<std::string, double> m;
  StackOptions base;
  base.seed = seed;
  base.journal = spec.journaled;
  auto expect_same = [&](const char* what, const Fingerprint& a,
                         const Fingerprint& b) {
    if (!(a == b)) {
      errors.push_back(std::string(what) + " changed the fingerprint: " +
                       a.str() + " vs " + b.str());
    }
  };

  // R0: the timed configuration. A warm-up repetition takes the process's
  // first-touch costs; the median of three more is the reference wall time
  // for every difference and share below.
  plain_run(spec, base);
  PlainRun timed;
  double ops = 0.0;
  std::vector<double> walls;
  for (int rep = 0; rep < 3; ++rep) {
    Stack timed_stack;
    const PlainRun run = plain_run(spec, base, &timed_stack);
    walls.push_back(run.wall_s);
    if (rep > 0) {
      expect_same("repeating the campaign", timed.fp, run.fp);
      continue;
    }
    timed = run;
    ops = static_cast<double>(operations(timed_stack));
    failed_operations(timed.fp, static_cast<std::size_t>(ops), errors);
    m["sim.events_per_task"] = static_cast<double>(timed.events) / ops;
    m["core.agent.retries_per_task"] =
        static_cast<double>(
            timed_stack.agent->profiler().metrics().tasks_retried()) /
        ops;
    m["ingress.tasks_per_batch"] = 0.0;
    m["ingress.defer_share"] = 0.0;
    m["ingress.submit_launch_p99_ms"] = 0.0;
    if (timed_stack.ingress) {
      const auto stats = timed_stack.ingress->stats();
      m["ingress.tasks_per_batch"] =
          stats.batches ? static_cast<double>(stats.batched_tasks) /
                              static_cast<double>(stats.batches)
                        : 0.0;
      m["ingress.defer_share"] =
          stats.offered ? static_cast<double>(stats.deferred) /
                              static_cast<double>(stats.offered)
                        : 0.0;
      m["ingress.submit_launch_p99_ms"] = timed.fp.p99 * 1e3;
    }
    m["journal.records_per_task"] = 0.0;
    m["journal.bytes_per_task"] = 0.0;
    if (timed_stack.scribe) {
      m["journal.records_per_task"] =
          static_cast<double>(timed_stack.scribe->records()) / ops;
      m["journal.bytes_per_task"] =
          static_cast<double>(timed_stack.scribe->writer().bytes().size()) /
          ops;
    }
  }
  std::sort(walls.begin(), walls.end());
  timed.wall_s = walls[1];
  const double host_us = timed.wall_s / ops * 1e6;

  // R1: seam timing on a hand-built stack whose backends are decorated.
  const auto pdesc = pilot_description(spec);
  std::vector<BackendRecording> recs(pdesc.backends.size());
  EventLog log;
  double traced_wall = 0.0, submit_call_s = 0.0;
  std::size_t pending_peak = 0, queue_peak = 0;
  std::uint64_t node_changes = 0;
  {
    StackOptions options = base;
    std::size_t next = 0;
    options.backends = [&](flotilla::core::Session& session,
                           const flotilla::core::BackendSpec& backend,
                           flotilla::platform::NodeRange span,
                           flotilla::sim::Resource* ceiling) {
      auto& rec = recs.at(next++);
      rec.spec = backend;
      return std::make_unique<TimedBackend>(
          make_real_backend(session.engine(), session.cluster(),
                            session.calibration(), session.seed(), backend,
                            span, ceiling),
          session.engine(), rec);
    };
    Stack stack;
    set_up(stack, spec, options);
    for (auto& rec : recs) rec.settle_time = stack.session->now();
    NodeChangeCounter counter;
    stack.session->cluster().add_observer(&counter);
    std::vector<flotilla::flux::Instance*> instances;
    for (auto& rec : recs) {
      auto* flux = dynamic_cast<flotilla::flux::FluxBackend*>(rec.inner);
      if (flux) {
        for (int i = 0; i < flux->partitions(); ++i) {
          instances.push_back(&flux->instance(i));
        }
      }
    }
    auto& engine = stack.engine();
    engine.set_post_event_hook([&] {
      const std::size_t pending = engine.pending();
      log.times.push_back(engine.now());
      log.pending.push_back(static_cast<std::uint32_t>(pending));
      pending_peak = std::max(pending_peak, pending);
      std::size_t depth = 0;
      for (const auto* instance : instances) depth += instance->queue_depth();
      queue_peak = std::max(queue_peak, depth);
    });
    const auto t0 = Clock::now();
    submit(stack, &submit_call_s);
    log.initial_pending = engine.pending();
    engine.run();
    traced_wall = since(t0);
    expect_same("the backend decorator", timed.fp, fingerprint(stack));
    stack.session->cluster().remove_observer(&counter);
    node_changes = counter.changes;
    for (auto& rec : recs) rec.inner = nullptr;
  }
  double handler_s = 0.0, routed = 0.0;
  for (const auto& rec : recs) {
    handler_s += rec.handler_s;
    routed += static_cast<double>(rec.submits.size());
    if (rec.submits.size() != rec.tasks.size()) {
      errors.push_back(rec.name + ": a task was submitted twice");
    }
  }
  m["core.tmgr.submit_us_per_task"] = submit_call_s / ops * 1e6;
  m["core.agent.handler_us_per_task"] = handler_s / ops * 1e6;
  m["sim.pending_peak"] = static_cast<double>(pending_peak);
  m["flux.queue_depth_peak"] = static_cast<double>(queue_peak);
  m["platform.node_changes_per_task"] =
      static_cast<double>(node_changes) / ops;
  for (const char* type : {"flux", "dragon"}) {
    const std::string t = type;
    m["core.agent.routed_share." + t] = 0.0;
    m[t + ".submit_us_per_task"] = 0.0;
    m[t + ".self_us_per_task"] = 0.0;
  }
  for (const auto& rec : recs) {
    const std::string t = rec.spec.type;
    m["core.agent.routed_share." + t] =
        routed > 0 ? static_cast<double>(rec.submits.size()) / routed : 0.0;
    m[t + ".submit_us_per_task"] = rec.submit_s / ops * 1e6;
  }

  // R2: the RP core alone, against stubs replaying the backends.
  {
    StackOptions options = base;
    std::size_t next = 0;
    std::vector<ReplayBackend*> stubs;
    options.backends = [&](flotilla::core::Session& session,
                           const flotilla::core::BackendSpec&,
                           flotilla::platform::NodeRange,
                           flotilla::sim::Resource*) {
      auto stub =
          std::make_unique<ReplayBackend>(session.engine(), recs.at(next++));
      stubs.push_back(stub.get());
      return stub;
    };
    Stack stack;
    set_up(stack, spec, options);
    const auto t0 = Clock::now();
    submit(stack);
    stack.session->run();
    m["core.self_us_per_task"] = since(t0) / ops * 1e6;
    expect_same("the replay stub", timed.fp, fingerprint(stack));
    for (const auto* stub : stubs) {
      if (stub->unknown()) errors.push_back("replay stub got unknown tasks");
    }
  }

  // R3: each real backend alone, fed the recorded requests. Feeding costs
  // one engine event per submit time, and the replay stub in R2 costs its
  // own events and lookups: both are measured alone (a sink backend that
  // drops every request, the stub fed like a backend) and taken out, so
  // the self times hold only the layer's own work.
  double stub_s = 0.0;
  for (const auto& rec : recs) {
    const auto sink = replay_backend(rec, spec.nodes, seed, Feed::kSink);
    const auto stub = replay_backend(rec, spec.nodes, seed, Feed::kStub);
    const auto real = replay_backend(rec, spec.nodes, seed, Feed::kReal);
    stub_s += stub.wall_s - sink.wall_s;
    m[rec.spec.type + ".self_us_per_task"] =
        (real.wall_s - sink.wall_s) / ops * 1e6;
    for (const auto* replay : {&stub, &real}) {
      if (replay->mismatches) {
        errors.push_back(rec.name + " replay: " +
                         std::to_string(replay->mismatches) + " of " +
                         std::to_string(replay->tasks) +
                         " tasks started or completed at another time");
      }
    }
  }
  m["core.self_us_per_task"] -= stub_s / ops * 1e6;

  // R4: placement alone.
  const auto placer = replay_placer(recs, spec.nodes);
  m["sched.place_ns"] =
      placer.attempts
          ? placer.wall_s / static_cast<double>(placer.attempts) * 1e9
          : 0.0;

  // R5: the calendar alone.
  const auto calendar = replay_calendar(log);
  m["sim.calendar_ns_per_event"] =
      calendar.events ? calendar.wall_s / static_cast<double>(calendar.events) *
                            1e9
                      : 0.0;
  if (calendar.events != log.times.size()) {
    errors.push_back("calendar replay fired " +
                     std::to_string(calendar.events) + " of " +
                     std::to_string(log.times.size()) + " events");
  }
  log = EventLog();
  recs.clear();

  // R6: the same campaign with structured tracing on. Placement attempts
  // are counted from the records as they land, before the ring drops them.
  {
    StackOptions options = base;
    options.tracing = true;
    Stack stack;
    set_up(stack, spec, options);
    auto* tracer = stack.session->tracer();
    std::uint64_t seen = tracer->recorded(), attempts = 0, placed = 0;
    auto count = [&] {
      const auto fresh = std::min<std::uint64_t>(tracer->recorded() - seen,
                                                 tracer->size());
      for (std::size_t i = tracer->size() - fresh; i < tracer->size(); ++i) {
        const auto& r = tracer->at(i);
        if (r.kind == flotilla::obs::RecordKind::kInstant &&
            r.type == flotilla::obs::SpanType::kPlacementAttempt) {
          ++attempts;
          if (r.value > 0.5) ++placed;
        }
      }
      seen = tracer->recorded();
    };
    stack.engine().set_post_event_hook(count);
    const auto t0 = Clock::now();
    submit(stack);
    stack.session->run();
    const double wall = since(t0);
    count();
    expect_same("tracing", timed.fp, fingerprint(stack));
    m["obs.us_per_task"] = (wall - timed.wall_s) / ops * 1e6;
    m["obs.records_per_task"] = static_cast<double>(tracer->recorded()) / ops;
    m["obs.dropped"] = static_cast<double>(tracer->dropped());
    m["sched.attempts_per_task"] = static_cast<double>(attempts) / ops;
    m["sched.placed_share"] =
        attempts ? static_cast<double>(placed) / static_cast<double>(attempts)
                 : 0.0;
  }

  // R7: journal cost, where the campaign carries a journal.
  m["journal.us_per_task"] = 0.0;
  if (spec.journaled) {
    StackOptions options = base;
    options.journal = false;
    const PlainRun bare = plain_run(spec, options);
    m["journal.us_per_task"] = (timed.wall_s - bare.wall_s) / ops * 1e6;
    expect_same("dropping the journal", timed.fp, bare.fp);
  }

  // Recovery, once, checked by the oracle past the crash point.
  {
    const auto reference =
        journal_prefix(spec, seed, 2 * spec.crash_record, errors);
    write_file(journal_path, cut(reference, spec.crash_record), errors);
    const auto recovery = recover(spec, seed, journal_path, reference, errors);
    std::remove(journal_path.c_str());
    m["journal.parse_s"] = recovery.parse_s;
    m["journal.replayed_records"] = static_cast<double>(recovery.records);
  }

  m["bench.trace_overhead_share"] =
      (traced_wall - timed.wall_s) / timed.wall_s;
  m["bench.layer_sum_share"] =
      (m["core.self_us_per_task"] + m["flux.self_us_per_task"] +
       m["dragon.self_us_per_task"]) /
      host_us;

  Json metrics;
  for (const auto& [key, value] : m) metrics.add(key, value);
  Json out;
  out.add("mode", std::string("trace"))
      .add("workload", std::string(spec.name))
      .add("operations", ops)
      .add("host_us_per_task", host_us)
      .add("timed_wall_s", timed.wall_s)
      .add("traced_wall_s", traced_wall)
      .add("trace_process_s", since(trace_start))
      .raw("fingerprint", fingerprint_json(timed.fp).str())
      .raw("metrics", metrics.str())
      .add("errors", errors);
  std::cout << out.str() << std::endl;
  return 0;
}

int usage() {
  std::cerr << "usage: perfbench-driver timed|trace --workload W "
               "--journal-file PATH [--seed N] [--budget SECONDS]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::string workload;
  std::uint64_t seed = 42;
  double budget = 10.0;
  std::string journal_path;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::stoull(value);
    } else if (flag == "--budget") {
      budget = std::stod(value);
    } else if (flag == "--journal-file") {
      journal_path = value;
    } else {
      return usage();
    }
  }
  const auto* spec = find_workload(workload);
  if (!spec) {
    std::cerr << "unknown workload '" << workload << "'\n";
    return 2;
  }
  try {
    if (journal_path.empty()) return usage();
    if (mode == "timed") return run_timed(*spec, seed, budget, journal_path);
    if (mode == "trace") return run_trace(*spec, seed, journal_path);
  } catch (const std::exception& e) {
    std::cerr << "perfbench-driver: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
