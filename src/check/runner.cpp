#include "check/runner.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>
#include <utility>

#include "check/generator.hpp"
#include "core/pilot.hpp"
#include "core/session.hpp"
#include "core/task_manager.hpp"
#include "dragon/dragon_backend.hpp"
#include "flux/flux_backend.hpp"
#include "ingress/ingress.hpp"
#include "journal/scribe.hpp"
#include "prrte/dvm_backend.hpp"
#include "sched/queue.hpp"
#include "sim/random.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/strfmt.hpp"
#include "workloads/heterogeneous.hpp"
#include "workloads/synthetic.hpp"

namespace flotilla::check {

namespace {

sched::PlacementPolicyKind placement_kind(const std::string& name) {
  if (name == "first-fit") return sched::PlacementPolicyKind::kFirstFit;
  if (name == "best-fit") return sched::PlacementPolicyKind::kBestFit;
  if (name == "gpu-pack") return sched::PlacementPolicyKind::kGpuPack;
  util::raise("spec: unknown placement policy: ", name);
}

bool mix_has(const ScenarioSpec& spec, const std::string& type) {
  return std::any_of(spec.backends.begin(), spec.backends.end(),
                     [&](const auto& b) { return b.type == type; });
}

// IMPECCABLE-shaped mixture (dock/train/infer/scoring/reinvent families)
// scaled down to the smallest schedulable unit of the scenario's mix.
std::vector<workloads::TaskClass> impeccable_classes(const ScenarioSpec& spec,
                                                     const UnitCaps& caps) {
  const double base = std::max(0.25, spec.duration);
  const bool functions = mix_has(spec, "dragon");
  std::vector<workloads::TaskClass> classes;
  classes.push_back({"dock", 6.0, 1, 0, 0, base, 0.3,
                     platform::TaskModality::kExecutable});
  classes.push_back({"train", 1.0, 4, 2, 0, 2.0 * base, 0.2,
                     platform::TaskModality::kExecutable});
  classes.push_back({"infer", 2.0, 1, 1, 0, 0.5 * base, 0.3,
                     functions ? platform::TaskModality::kFunction
                               : platform::TaskModality::kExecutable});
  if (caps.nodes >= 2) {
    classes.push_back({"mmpbsa", 1.0, 2 * caps.cores, 0, caps.cores, base, 0.2,
                       platform::TaskModality::kExecutable});
  } else {
    classes.push_back({"mmpbsa", 1.0, caps.cores / 2, 0, 0, base, 0.2,
                       platform::TaskModality::kExecutable});
  }
  classes.push_back({"reinvent", 1.0, 2, 1, 0, base, 0.2,
                     platform::TaskModality::kExecutable});
  return classes;
}

std::vector<workloads::TaskClass> hetero_classes(const ScenarioSpec& spec,
                                                 const UnitCaps& caps) {
  const double base = std::max(0.25, spec.duration);
  const bool functions = mix_has(spec, "dragon");
  std::vector<workloads::TaskClass> classes;
  if (functions) {
    classes.push_back({"func", 3.0, 1, 0, 0, 0.2 * base, 0.5,
                       platform::TaskModality::kFunction});
  }
  classes.push_back({"small", 4.0, 1, 0, 0, base, 0.3,
                     platform::TaskModality::kExecutable});
  classes.push_back({"medium", 2.0, 4, 0, 0, 2.0 * base, 0.3,
                     platform::TaskModality::kExecutable});
  classes.push_back(
      {"gpu", 1.0, 2, 1, 0, base, 0.3, platform::TaskModality::kExecutable});
  if (caps.nodes >= 2) {
    classes.push_back({"mpi", 1.0, 2 * caps.cores, 0, caps.cores, 2.0 * base,
                       0.2, platform::TaskModality::kExecutable});
  }
  return classes;
}

std::vector<core::TaskDescription> build_workload(const ScenarioSpec& spec) {
  const auto caps = unit_caps(spec);
  std::vector<core::TaskDescription> tasks;
  if (spec.workload == "null" || spec.workload == "sleep") {
    const double duration = spec.workload == "null" ? 0.0 : spec.duration;
    tasks = workloads::uniform_tasks(spec.tasks, duration,
                                     std::min(spec.cores, caps.cores));
    const auto gpus = std::min(spec.gpus, caps.gpus);
    for (auto& t : tasks) t.demand.gpus = gpus;
  } else if (spec.workload == "hetero") {
    tasks = workloads::heterogeneous_tasks(spec.tasks,
                                           hetero_classes(spec, caps),
                                           spec.seed ^ 0x9e3779b97f4a7c15ull);
  } else if (spec.workload == "impeccable") {
    tasks = workloads::heterogeneous_tasks(spec.tasks,
                                           impeccable_classes(spec, caps),
                                           spec.seed ^ 0xbf58476d1ce4e5b9ull);
  } else {
    util::raise("spec: unknown workload: ", spec.workload);
  }

  // Decorations the workload generators do not model: failure injection,
  // retry budgets, priorities and staged data.
  sim::RngStream rng(spec.seed, "check.workload");
  for (auto& t : tasks) {
    t.fail_probability = spec.fail_probability;
    t.max_retries = spec.max_retries;
    if (rng.bernoulli(0.5)) {
      t.priority = static_cast<int>(rng.uniform_int(0, 31));
    }
    if (rng.bernoulli(0.2)) t.input_mb = rng.uniform(1.0, 64.0);
    if (rng.bernoulli(0.2)) t.output_mb = rng.uniform(1.0, 64.0);
  }
  return tasks;
}

// Maps the spec's ingress dimensions onto an IngressConfig. arrival_param
// is overloaded the way the spec documents it: open-loop rate [tasks/s] or
// closed-loop think time [s]; 0 keeps the ingress defaults.
ingress::IngressConfig ingress_config(const ScenarioSpec& spec) {
  ingress::IngressConfig cfg;
  cfg.clients = spec.clients;
  cfg.total_offers = spec.tasks;
  cfg.arrival.kind = ingress::ArrivalConfig::parse(spec.arrival).kind;
  if (spec.arrival_param > 0.0) {
    if (cfg.arrival.kind == ingress::ArrivalKind::kClosed) {
      cfg.arrival.think = spec.arrival_param;
    } else {
      cfg.arrival.rate = spec.arrival_param;
    }
  }
  if (spec.admit == "reject") {
    cfg.admit.policy = ingress::AdmitPolicy::kReject;
  } else if (spec.admit == "defer") {
    cfg.admit.policy = ingress::AdmitPolicy::kDefer;
  } else {
    util::raise("spec: unknown admission policy: ", spec.admit);
  }
  if (spec.admit_capacity < 0) {
    util::raise("spec: negative admission capacity: ", spec.admit_capacity);
  }
  cfg.admit.capacity = static_cast<std::size_t>(spec.admit_capacity);
  return cfg;
}

// Post-build scheduler knobs the PilotDescription cannot express: swap the
// placement policy of every flux instance / dragon runtime, and optionally
// the dragon capacity queue's admission policy.
void apply_knobs(core::Agent& agent, const ScenarioSpec& spec) {
  const auto kind = placement_kind(spec.placement);
  if (auto* tb = agent.backend("flux")) {
    auto* fb = static_cast<flux::FluxBackend*>(tb);
    for (int i = 0; i < fb->partitions(); ++i) {
      fb->instance(i).set_placement_policy(kind);
    }
  }
  if (auto* tb = agent.backend("dragon")) {
    auto* db = static_cast<dragon::DragonBackend*>(tb);
    for (int i = 0; i < db->partitions(); ++i) {
      db->runtime(i).set_placement_policy(kind);
      if (spec.dragon_queue == "priority") {
        db->runtime(i).set_queue_policy(
            std::make_unique<sched::PriorityFifoPolicy>());
      }
    }
  }
}

void apply_crash(core::Agent& agent, const FaultSpec& fault) {
  auto* tb = agent.backend(fault.backend);
  if (tb == nullptr) return;  // backend dropped during bootstrap
  if (fault.backend == "flux") {
    auto* fb = static_cast<flux::FluxBackend*>(tb);
    const int i = fault.index % std::max(1, fb->partitions());
    if (fb->instance(i).healthy()) {
      fb->crash_instance(i, "fault injection: broker lost");
    }
  } else if (fault.backend == "dragon") {
    auto* db = static_cast<dragon::DragonBackend*>(tb);
    const int i = fault.index % std::max(1, db->partitions());
    if (db->runtime(i).healthy()) {
      db->crash("fault injection: runtime lost", i);
    }
  } else if (fault.backend == "prrte") {
    auto* pb = static_cast<prrte::DvmBackend*>(tb);
    if (pb->healthy()) pb->crash("fault injection: dvm lost");
  }
}

// The deliberate defect the harness must be able to catch (see ISSUE /
// docs/correctness.md): a double-booking scheduler modeled as one core
// claimed behind every placer's back and never released. Retries until a
// core is free so the leak lands even mid-burst. The retry reschedules a
// copy of itself, so nothing outlives the engine that holds it.
struct OvercommitInjector {
  core::Session& session;
  core::Pilot& pilot;

  void operator()() const {
    const auto range = pilot.allocation();
    for (platform::NodeId n = range.first; n < range.end(); ++n) {
      if (session.cluster().node(n).allocate(1, 0)) return;  // leaked
    }
    session.engine().in(1.0, *this);
  }
};

void inject_overcommit(core::Session& session, core::Pilot& pilot,
                       sim::Time start) {
  session.engine().at(start, OvercommitInjector{session, pilot});
}

// Journal lines end in '\n'; violation details are single-line.
std::string chomp(std::string line) {
  while (!line.empty() && line.back() == '\n') line.pop_back();
  return line;
}

// The journal header records the spec with the oracle dimensions reset:
// crash_at/recover describe how the *oracle* exercises the scenario, not
// what the run does, so every crash point of a scenario shares one
// uninterrupted reference journal (docs/recovery.md).
std::string header_spec_line(const ScenarioSpec& spec) {
  ScenarioSpec header = spec;
  header.crash_at = 0;
  header.recover = true;
  return header.to_string();
}

void run_impl(const ScenarioSpec& spec, const RunOptions& opts,
              RunResult& result) {
  core::Session session(platform::frontier_spec(), spec.nodes, spec.seed);
  // The fingerprint is the tracer's running digest, so tracing comes on
  // before any component captures its handle. The runner reads only the
  // digest, which covers dropped records too: one retained slot suffices.
  const obs::Tracer& tracer = session.enable_tracing(1);
  InvariantMonitor::Options mopts;
  mopts.coherence_stride = opts.coherence_stride;
  InvariantMonitor monitor(session, mopts);

  // Durable journal: the scribe attaches before the pilot exists so
  // bootstrap-time allocations are journaled too. In recovery mode it
  // validates every record against the surviving prefix.
  std::unique_ptr<journal::Scribe> scribe;
  if (opts.journal || opts.crash_at > 0 || opts.recovery != nullptr) {
    scribe = opts.recovery != nullptr
                 ? std::make_unique<journal::Scribe>(session,
                                                     opts.recovery->prefix())
                 : std::make_unique<journal::Scribe>(session);
    scribe->record_header(spec.seed, header_spec_line(spec));
  }
  const auto crashed_now = [&] {
    if (scribe == nullptr || opts.crash_at == 0) return false;
    return scribe->records() >= opts.crash_at;
  };

  core::PilotManager pmgr(session);
  core::PilotDescription pd;
  pd.nodes = spec.nodes;
  pd.backends = spec.backends;
  pd.trace_tasks = true;
  pd.router = spec.router == "adaptive" ? core::RouterPolicy::kAdaptive
                                        : core::RouterPolicy::kStatic;
  auto& pilot = pmgr.submit(std::move(pd));

  bool ready = false;
  bool ready_reported = false;
  std::string ready_error;
  pilot.launch([&](bool ok, std::string error) {
    ready = ok;
    ready_reported = true;
    ready_error = std::move(error);
  });
  apply_knobs(pilot.agent(), spec);

  const std::uint64_t launch_budget = 100000;
  while (!ready_reported && session.engine().step()) {
    if (++result.events > launch_budget) break;
    if (crashed_now()) {
      // Controller died during bootstrap: keep the surviving bytes, skip
      // the end-state audit (an interrupted run legitimately holds
      // in-flight allocations).
      result.crashed = true;
      result.journal = scribe->writer().bytes();
      return;
    }
  }
  result.ready = ready;
  if (!ready) {
    monitor.finish();
    result.violations = monitor.violations();
    result.violations.push_back(Violation{
        "launch", util::cat("pilot never became ready: ", ready_error),
        session.now()});
    return;
  }
  const sim::Time ready_time = session.now();
  if (scribe) scribe->record_ready();

  core::TaskManager tmgr(session, pilot.agent());
  monitor.watch(tmgr);
  if (scribe) scribe->attach(tmgr);
  monitor.watch_backends(pilot.agent());
  tmgr.on_complete([&result](const core::Task& task) {
    switch (task.state()) {
      case core::TaskState::kDone:
        ++result.done;
        break;
      case core::TaskState::kFailed:
        ++result.failed;
        break;
      default:
        ++result.canceled;
        break;
    }
  });

  // Service-mode ingress (docs/ingress.md): clients > 0 routes the task
  // budget through an arrival process + admission control instead of one
  // up-front submit. Accepted tasks then trickle in over the run, so cancel
  // storms sample the ingress service's accepted set at fire time.
  std::unique_ptr<ingress::IngressService> svc;
  std::vector<core::TaskId> ids;
  if (spec.clients > 0) {
    svc = std::make_unique<ingress::IngressService>(session, tmgr,
                                                    ingress_config(spec));
    svc->start(build_workload(spec));
  } else {
    for (const auto& uid : tmgr.submit(build_workload(spec))) {
      ids.push_back(tmgr.task(uid).id());
    }
  }

  // The injected state-loss defect (docs/recovery.md): a recovery path
  // that forgets the pending fault schedule. Inert on normal runs — only
  // the crash/recover oracle can observe it, as a journal divergence or a
  // terminal-state mismatch against the uninterrupted reference.
  const bool lost_fault_schedule =
      spec.bug == "state-loss" && opts.recovery != nullptr;
  for (const auto& fault : spec.faults) {
    if (lost_fault_schedule) break;
    if (fault.kind == FaultSpec::Kind::kCrash) {
      session.engine().at(ready_time + fault.time,
                          [&pilot, fault, s = scribe.get()] {
                            if (s) {
                              s->record_fault("crash", fault.backend,
                                              fault.index, 0);
                            }
                            apply_crash(pilot.agent(), fault);
                          });
    } else {
      session.engine().at(
          ready_time + fault.time,
          [&tmgr, &ids, fault, s = scribe.get(), svc_p = svc.get()] {
            // Under ingress the accepted set grows over the run; sample it
            // when the storm fires, not when it was scheduled.
            const auto& pool = svc_p != nullptr ? svc_p->accepted_ids() : ids;
            if (pool.empty()) return;
            const auto n = std::min<std::size_t>(
                pool.size(),
                static_cast<std::size_t>(std::max(1, fault.count)));
            if (s) {
              s->record_fault("cancel", "", 0,
                              static_cast<std::int64_t>(n));
            }
            const std::size_t stride = pool.size() / n;
            for (std::size_t i = 0; i < n; ++i) {
              tmgr.cancel(pool[i * stride]);
            }
          });
    }
  }
  if (spec.bug == "overcommit") {
    inject_overcommit(session, pilot, ready_time + 0.5);
  } else if (spec.bug != "none" && spec.bug != "state-loss") {
    util::raise("spec: unknown bug injection: ", spec.bug);
  }

  const std::uint64_t budget =
      opts.max_events != 0
          ? opts.max_events
          : 200000 + 5000ull * static_cast<std::uint64_t>(
                                   std::max(0, spec.tasks));
  bool livelocked = false;
  while (session.engine().step()) {
    if (++result.events > budget) {
      livelocked = true;
      result.violations.push_back(Violation{
          "livelock",
          util::cat("event budget exhausted after ", result.events,
                    " events with ", session.engine().pending(),
                    " still pending"),
          session.now()});
      break;
    }
    if (crashed_now()) {
      result.crashed = true;
      break;
    }
  }
  result.makespan = session.now() - ready_time;
  if (result.crashed) {
    // Simulated controller death: the journal prefix is all that
    // survives. No end record, no end-state audit — an interrupted run
    // legitimately holds in-flight allocations and unfinished tasks.
    result.journal = scribe->writer().bytes();
    return;
  }
  if (scribe) {
    scribe->record_end(static_cast<std::int64_t>(result.done),
                       static_cast<std::int64_t>(result.failed),
                       static_cast<std::int64_t>(result.canceled),
                       result.events);
  }

  monitor.finish();
  for (const auto& v : monitor.violations()) {
    result.violations.push_back(v);
  }

  // Ingress oracles: every offer got exactly one verdict (conservation
  // under rejection), every accept reached the TMGR, closed-loop clients
  // honored their in-flight bound, and the service drained (unless the
  // run livelocked, in which case the drain is the livelock's problem).
  if (svc != nullptr) {
    const auto istats = svc->stats();
    if (!istats.conserved()) {
      result.violations.push_back(Violation{
          "ingress-conservation",
          util::cat("offered ", istats.offered, " != accepted ",
                    istats.accepted, " + rejected ", istats.rejected,
                    " + deferred ", istats.deferred),
          session.now()});
    }
    if (istats.accepted != tmgr.submitted()) {
      result.violations.push_back(Violation{
          "ingress-conservation",
          util::cat("accepted ", istats.accepted,
                    " offers but the TMGR holds ", tmgr.submitted(),
                    " submissions"),
          session.now()});
    }
    const auto cfg = ingress_config(spec);
    if (cfg.arrival.kind == ingress::ArrivalKind::kClosed &&
        istats.max_client_in_flight >
            static_cast<std::uint64_t>(cfg.in_flight_limit)) {
      result.violations.push_back(Violation{
          "ingress-bound",
          util::cat("a closed-loop client reached ",
                    istats.max_client_in_flight,
                    " in-flight requests (limit ", cfg.in_flight_limit, ")"),
          session.now()});
    }
    if (!livelocked && !svc->quiescent()) {
      result.violations.push_back(Violation{
          "ingress-conservation",
          "engine drained but the ingress service is not quiescent",
          session.now()});
    }
  }

  if (opts.recovery != nullptr) {
    if (scribe->diverged()) {
      const auto& d = scribe->divergence();
      result.violations.push_back(Violation{
          "recovery-divergence",
          util::cat("replay diverged from the journal at record #", d.index,
                    ": expected [", chomp(d.expected), "] got [",
                    chomp(d.got), "]"),
          session.now()});
    } else if (!scribe->replay_complete()) {
      result.violations.push_back(Violation{
          "recovery-divergence",
          util::cat("replay ended after ", scribe->cursor(), " of ",
                    opts.recovery->prefix().size(),
                    " journaled records"),
          session.now()});
    }
  }

  if (scribe) result.journal = scribe->writer().bytes();
  // Restore-path equivalence digests, in backend registration order
  // (deterministic): compared against the uninterrupted reference by
  // check_recovery and the RecoveryContract suite.
  for (const auto& name : pilot.agent().backend_names()) {
    if (auto* b = pilot.agent().backend(name)) {
      result.backend_summaries.push_back(b->restore_summary());
    }
  }

  // Fingerprint: the obs stream's digest (per-task states included) plus
  // every task's final record. Bit-identical across runs of the same spec
  // iff the simulation is deterministic.
  std::uint64_t h = tracer.digest();
  tmgr.for_each_task([&h](const core::Task& task) {
    h = util::fnv1a64(h, util::cat(task.uid(), "|",
                                   core::to_string(task.state()), "|",
                                   task.backend(), "|", task.attempts(),
                                   "\n"));
  });
  if (svc != nullptr) {
    // Ingress counters join the fingerprint only when armed, so classic
    // (clients=0) fingerprints stay comparable with pre-ingress baselines.
    const auto istats = svc->stats();
    h = util::fnv1a64(
        h, util::cat("ingress|", istats.offered, "|", istats.accepted, "|",
                     istats.rejected, "|", istats.deferred, "|",
                     istats.batches, "|", istats.launched, "|",
                     istats.completed, "\n"));
  }
  result.fingerprint = h;
}

}  // namespace

RunResult run_scenario(const ScenarioSpec& spec, const RunOptions& opts) {
  RunResult result;
  try {
    run_impl(spec, opts, result);
  } catch (const std::exception& e) {
    result.violations.push_back(Violation{"exception", e.what(), 0.0});
  }
  return result;
}

std::vector<Violation> check_recovery(const ScenarioSpec& spec,
                                      const RunResult& reference,
                                      const RunOptions& opts) {
  std::vector<Violation> out;
  if (spec.crash_at == 0) return out;
  if (reference.journal.empty()) {
    out.push_back(Violation{
        "recovery", "reference run recorded no journal (opts.journal off?)",
        0.0});
    return out;
  }

  // 1. Re-run to the crash point: the controller dies once its journal
  // holds spec.crash_at records. Pre-crash invariant violations are the
  // uninterrupted reference's to report; here only the bytes matter.
  RunOptions copts = opts;
  copts.journal = true;
  copts.crash_at = spec.crash_at;
  copts.recovery = nullptr;
  const RunResult crashed = run_scenario(spec, copts);

  // 2. Torn tail: a crash mid-write loses a few trailing bytes. Seeded
  // and deterministic; the header record always survives (a journal whose
  // very first write was torn has nothing to recover, by construction).
  std::string bytes = crashed.journal;
  sim::RngStream torn(spec.seed ^ spec.crash_at, "check.torn-tail");
  const std::size_t keep = bytes.find('\n') + 1;
  std::size_t chop = static_cast<std::size_t>(torn.uniform_int(0, 48));
  chop = std::min(chop, bytes.size() > keep ? bytes.size() - keep
                                            : std::size_t{0});
  bytes.resize(bytes.size() - chop);

  // 3. Recover by deterministic re-execution, validating every emitted
  // record against the surviving prefix, then compare the finished run
  // byte-for-byte against the uninterrupted reference.
  try {
    const journal::RecoveryManager rm(bytes);
    if (!spec.recover) return out;  // survive-only: prefix integrity checked
    RunOptions ropts = opts;
    ropts.journal = true;
    ropts.crash_at = 0;
    ropts.recovery = &rm;
    const RunResult recovered =
        run_scenario(ScenarioSpec::parse(rm.spec_line()), ropts);
    for (const auto& v : recovered.violations) out.push_back(v);
    if (recovered.journal != reference.journal) {
      // Locate the first differing record for the report.
      const auto split_lines = [](const std::string& text) {
        std::vector<std::string> lines;
        std::string line;
        std::istringstream is(text);
        while (std::getline(is, line)) lines.push_back(line);
        return lines;
      };
      const auto ref = split_lines(reference.journal);
      const auto got = split_lines(recovered.journal);
      std::size_t i = 0;
      while (i < ref.size() && i < got.size() && ref[i] == got[i]) ++i;
      out.push_back(Violation{
          "recovery",
          util::cat("recovered journal diverged from the uninterrupted run "
                    "at record #",
                    i, ": expected [", i < ref.size() ? ref[i] : "<eof>",
                    "] got [", i < got.size() ? got[i] : "<eof>", "]"),
          0.0});
    }
    if (recovered.fingerprint != reference.fingerprint ||
        recovered.done != reference.done ||
        recovered.failed != reference.failed ||
        recovered.canceled != reference.canceled ||
        recovered.makespan != reference.makespan) {
      out.push_back(Violation{
          "recovery",
          util::cat("recovered terminal state mismatch: fingerprint ",
                    recovered.fingerprint, " vs ", reference.fingerprint,
                    ", done ", recovered.done, " vs ", reference.done,
                    ", failed ", recovered.failed, " vs ", reference.failed,
                    ", canceled ", recovered.canceled, " vs ",
                    reference.canceled, ", makespan ", recovered.makespan,
                    " vs ", reference.makespan),
          0.0});
    }
    if (recovered.backend_summaries != reference.backend_summaries) {
      std::string detail = "restored backend state diverged:";
      for (std::size_t i = 0; i < reference.backend_summaries.size() ||
                              i < recovered.backend_summaries.size();
           ++i) {
        const std::string& want = i < reference.backend_summaries.size()
                                      ? reference.backend_summaries[i]
                                      : "<absent>";
        const std::string& have = i < recovered.backend_summaries.size()
                                      ? recovered.backend_summaries[i]
                                      : "<absent>";
        if (want != have) {
          detail += util::cat(" [", want, "] vs [", have, "]");
        }
      }
      out.push_back(Violation{"recovery", detail, 0.0});
    }
  } catch (const std::exception& e) {
    out.push_back(Violation{
        "recovery", util::cat("journal prefix unrecoverable: ", e.what()),
        0.0});
  }
  return out;
}

RunResult run_with_oracles(const ScenarioSpec& spec, const RunOptions& opts) {
  // The recovery oracle compares against the first run's journal, so
  // journal the base runs whenever the spec carries a crash point.
  RunOptions base = opts;
  if (spec.crash_at > 0) base.journal = true;
  RunResult first = run_scenario(spec, base);
  const RunResult second = run_scenario(spec, base);
  if (first.fingerprint != second.fingerprint ||
      first.events != second.events || first.journal != second.journal) {
    first.violations.push_back(Violation{
        "determinism",
        util::cat("same-seed runs diverged: fingerprint ", first.fingerprint,
                  " vs ", second.fingerprint, ", events ", first.events,
                  " vs ", second.events, ", journal bytes ",
                  first.journal.size(), " vs ", second.journal.size()),
        0.0});
  }
  // Crash/recover oracle (docs/recovery.md): crash the controller at the
  // spec's record index, recover from the surviving journal prefix, and
  // demand the recovered run be byte- and state-equivalent to `first`.
  if (spec.crash_at > 0) {
    for (auto& violation : check_recovery(spec, first, opts)) {
      first.violations.push_back(std::move(violation));
    }
  }
  return first;
}

}  // namespace flotilla::check
