// flotilla-run: command-line experiment driver.
//
// Runs a workload against a runtime configuration and prints the paper's
// three metrics plus the session-report overhead breakdown — the tool a
// downstream user reaches for before writing code against the API.
//
//   $ flotilla-run --backend flux --nodes 64 --partitions 4
//                  --workload dummy --tasks 14336 --duration 180
//   $ flotilla-run --workload impeccable --backend srun --nodes 256
//   $ flotilla-run --workload trace --trace-file workload.csv
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "analytics/session_report.hpp"
#include "core/flotilla.hpp"
#include "ingress/ingress.hpp"
#include "journal/recovery.hpp"
#include "journal/scribe.hpp"
#include "obs/export.hpp"
#include "obs/report.hpp"
#include "platform/spec_config.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "workloads/impeccable.hpp"
#include "workloads/synthetic.hpp"
#include "workloads/trace_replay.hpp"

using namespace flotilla;

namespace {

// An integer option narrowed to int: values below `lo` or beyond int's
// range are an error rather than a silent wrap.
int int_option(const util::CliParser& cli, const std::string& name,
               long lo = std::numeric_limits<int>::min()) {
  const long value = cli.get_int(name);
  if (value < lo || value > std::numeric_limits<int>::max()) {
    util::raise("option --", name, " is out of range [", lo, ", ",
                std::numeric_limits<int>::max(), "]: ", value);
  }
  return static_cast<int>(value);
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli(
      "Run a Flotilla workload against a runtime configuration.");
  cli.option("backend", "flux", "srun | flux | dragon | prrte | hybrid")
      .option("nodes", "16", "pilot size in nodes")
      .option("partitions", "1", "flux/dragon instances")
      .option("workload", "null", "null | dummy | mixed | impeccable | trace")
      .option("tasks", "0", "task count (0 = nodes*56*4)")
      .option("duration", "180", "dummy task duration [s]")
      .option("cores", "1", "cores per synthetic task")
      .option("seed", "42", "deterministic RNG seed")
      .option("platform", "frontier", "frontier | summit | generic")
      .option("config", "",
              "key=value file overriding platform.* and calibration keys")
      .option("trace-file", "", "CSV trace for --workload trace")
      .option("router", "static", "static | adaptive")
      .option("clients", "0",
              "service-mode ingress: client population size (0 = classic "
              "one-shot submit; see docs/ingress.md)")
      .option("arrival", "poisson",
              "arrival process, kind[:param] — poisson|diurnal|bursty with "
              "an aggregate rate [tasks/s], or closed with a think time [s]")
      .option("admit", "reject",
              "admission policy, policy[:capacity] — reject|defer against "
              "a bounded intake queue")
      .option("trace", "", "write a Chrome trace_event JSON to this path")
      .option("prof", "", "write an RP-profiler-style .prof CSV to this path")
      .option("trace-capacity", "0",
              "trace ring-buffer capacity in records (0 = default 1M)")
      .option("journal", "",
              "record a durable event journal to this path (docs/recovery.md)")
      .option("recover", "",
              "recover from a journal at this path: re-execute the run, "
              "validating every record against the surviving prefix "
              "(requires the same flags as the journaled run)")
      .flag("report", "print the per-phase session report");

  try {
    if (!cli.parse(argc, argv)) return 0;

    const int nodes = int_option(cli, "nodes");
    const int partitions = int_option(cli, "partitions");
    int tasks = int_option(cli, "tasks", 0);
    const int cores = int_option(cli, "cores", 0);
    const int clients = int_option(cli, "clients", 0);
    const double duration = cli.get_double("duration");
    if (duration < 0) {
      util::raise("option --duration must not be negative: ", duration);
    }
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    auto spec = platform::spec_by_name(cli.get("platform"));
    auto calibration = platform::frontier_calibration();
    if (!cli.get("config").empty()) {
      std::ifstream file(cli.get("config"));
      if (!file) {
        std::cerr << "cannot open --config '" << cli.get("config") << "'\n";
        return 2;
      }
      std::stringstream buffer;
      buffer << file.rdbuf();
      const auto config = util::Config::from_text(buffer.str());
      if (config.has("platform.name") ||
          !config.subset("platform").entries().empty()) {
        spec = platform::spec_from_config(config);
      }
      calibration = platform::calibration_from_config(config);
    }
    const auto trace_path = cli.get("trace");
    const auto prof_path = cli.get("prof");
    const bool tracing = !trace_path.empty() || !prof_path.empty();
    core::Session session(spec, nodes, seed, calibration);
    if (tracing) {
      // Must happen before pilots/task managers exist: components capture
      // the trace handle at construction.
      const auto capacity = cli.get_int("trace-capacity");
      session.enable_tracing(capacity > 0
                                 ? static_cast<std::size_t>(capacity)
                                 : obs::Tracer::kDefaultCapacity);
    }
    // Durable journal / recovery (docs/recovery.md). The header records
    // the tool settings that shape the run; --recover demands they match
    // the journaled run's, since recovery re-executes from the seed.
    const auto journal_path = cli.get("journal");
    const auto recover_path = cli.get("recover");
    if (!journal_path.empty() && !recover_path.empty()) {
      std::cerr << "--journal and --recover are mutually exclusive\n";
      return 2;
    }
    const std::string settings_line =
        "tool=flotilla-run;backend=" + cli.get("backend") +
        ";nodes=" + std::to_string(nodes) +
        ";partitions=" + cli.get("partitions") +
        ";workload=" + cli.get("workload") +
        ";tasks=" + cli.get("tasks") + ";duration=" + cli.get("duration") +
        ";cores=" + cli.get("cores") + ";seed=" + std::to_string(seed) +
        ";router=" + cli.get("router") + ";clients=" + cli.get("clients") +
        ";arrival=" + cli.get("arrival") + ";admit=" + cli.get("admit");
    std::unique_ptr<journal::RecoveryManager> recovery;
    std::unique_ptr<journal::Scribe> scribe;
    if (!recover_path.empty()) {
      std::ifstream in(recover_path, std::ios::binary);
      if (!in) {
        std::cerr << "cannot open --recover '" << recover_path << "'\n";
        return 2;
      }
      std::stringstream bytes;
      bytes << in.rdbuf();
      recovery = std::make_unique<journal::RecoveryManager>(bytes.str());
      if (recovery->spec_line() != settings_line ||
          recovery->seed() != seed) {
        std::cerr << "journal was recorded with different settings:\n  "
                  << recovery->spec_line() << "\nthis invocation:\n  "
                  << settings_line << "\n";
        return 2;
      }
      const auto image = recovery->image();
      std::cout << "recovering from " << recover_path << ": "
                << recovery->prefix().size() << " records ("
                << image.tasks.size() << " tasks journaled, "
                << image.tasks_in_flight() << " in flight"
                << (recovery->truncated()
                        ? ", torn tail of " +
                              std::to_string(recovery->truncated_bytes()) +
                              " bytes discarded"
                        : "")
                << ")\n";
      scribe = std::make_unique<journal::Scribe>(session,
                                                 recovery->prefix());
    } else if (!journal_path.empty()) {
      scribe = std::make_unique<journal::Scribe>(session);
    }
    if (scribe) scribe->record_header(seed, settings_line);

    core::PilotManager pmgr(session);

    core::PilotDescription pdesc;
    pdesc.nodes = nodes;
    const auto backend = cli.get("backend");
    if (backend == "hybrid") {
      pdesc.backends = {
          {.type = "flux", .partitions = partitions, .nodes = nodes / 2},
          {.type = "dragon", .partitions = 1, .nodes = nodes - nodes / 2}};
    } else if (backend == "flux" || backend == "dragon") {
      pdesc.backends = {{.type = backend, .partitions = partitions}};
    } else if (backend == "srun" || backend == "prrte") {
      pdesc.backends = {{backend}};
    } else {
      std::cerr << "unknown --backend " << backend << "\n";
      return 2;
    }
    pdesc.router = cli.get("router") == "adaptive"
                       ? core::RouterPolicy::kAdaptive
                       : core::RouterPolicy::kStatic;

    auto& pilot = pmgr.submit(std::move(pdesc));
    bool ready = false;
    std::string error;
    pilot.launch([&](bool ok, const std::string& e) {
      ready = ok;
      error = e;
    });
    session.run(600.0);
    if (!ready) {
      std::cerr << "pilot failed to launch: " << error << "\n";
      return 1;
    }
    if (scribe) scribe->record_ready();
    core::TaskManager tmgr(session, pilot.agent());
    if (scribe) scribe->attach(tmgr);
    tmgr.on_complete([](const core::Task&) {});

    const auto workload = cli.get("workload");
    if (tasks == 0) tasks = workloads::paper_task_count(nodes);

    // Service-mode ingress (docs/ingress.md): --clients > 0 drives the
    // synthetic workload through an arrival process with admission
    // control instead of one up-front submit. Workflow-shaped workloads
    // (impeccable, trace) schedule their own submissions and are
    // incompatible with an arrival process.
    std::unique_ptr<ingress::IngressService> ingress_svc;
    if (clients > 0) {
      if (workload != "null" && workload != "dummy" && workload != "mixed") {
        std::cerr << "--clients requires --workload null|dummy|mixed\n";
        return 2;
      }
      ingress::IngressConfig icfg;
      icfg.clients = clients;
      icfg.total_offers = tasks;
      icfg.arrival = ingress::ArrivalConfig::parse(cli.get("arrival"));
      icfg.admit = ingress::AdmitConfig::parse(cli.get("admit"));
      ingress_svc = std::make_unique<ingress::IngressService>(session, tmgr,
                                                              icfg);
      const double proto_duration = workload == "null" ? 0.0 : duration;
      ingress_svc->start(workload == "mixed"
                             ? workloads::mixed_tasks(tasks, duration)
                             : workloads::uniform_tasks(tasks, proto_duration,
                                                        cores));
    } else if (workload == "null") {
      tmgr.submit(workloads::uniform_tasks(tasks, 0.0, cores));
    } else if (workload == "dummy") {
      tmgr.submit(workloads::uniform_tasks(tasks, duration, cores));
    } else if (workload == "mixed") {
      tmgr.submit(workloads::mixed_tasks(tasks, duration));
    } else if (workload == "impeccable") {
      auto plan = workloads::impeccable_plan(nodes);
      static core::Workflow workflow(tmgr);
      workloads::build_impeccable(workflow, plan);
      workflow.start();
    } else if (workload == "trace") {
      std::ifstream file(cli.get("trace-file"));
      if (!file) {
        std::cerr << "cannot open --trace-file '" << cli.get("trace-file")
                  << "'\n";
        return 2;
      }
      workloads::replay(tmgr, workloads::parse_trace(file), session.now());
    } else {
      std::cerr << "unknown --workload " << workload << "\n";
      return 2;
    }

    session.run();

    const auto& final_metrics = pilot.agent().profiler().metrics();
    if (scribe) {
      scribe->record_end(
          static_cast<std::int64_t>(final_metrics.tasks_done()),
          static_cast<std::int64_t>(final_metrics.tasks_failed()), 0,
          session.engine().processed());
    }
    if (!journal_path.empty()) {
      std::ofstream out(journal_path, std::ios::binary);
      if (!out) {
        std::cerr << "cannot open --journal '" << journal_path << "'\n";
        return 2;
      }
      out << scribe->writer().bytes();
      out.close();
      if (!out) {
        std::cerr << "cannot write --journal '" << journal_path << "'\n";
        return 2;
      }
      std::cout << "journal: " << journal_path << " (" << scribe->records()
                << " records, " << scribe->writer().size()
                << " bytes)\n";
    }
    if (recovery) {
      if (scribe->diverged()) {
        const auto& d = scribe->divergence();
        std::cerr << "recovery FAILED: replay diverged from the journal at "
                  << "record #" << d.index << "\n  expected: " << d.expected
                  << "  got:      " << d.got;
        return 1;
      }
      if (!scribe->replay_complete()) {
        std::cerr << "recovery FAILED: replay ended after "
                  << scribe->cursor() << " of "
                  << recovery->prefix().size() << " journaled records\n";
        return 1;
      }
      std::cout << "recovery ok: " << recovery->prefix().size()
                << " journaled records validated, run continued to "
                << scribe->records() << " records\n";
    }

    const auto& metrics = pilot.agent().profiler().metrics();
    std::cout << "backend=" << backend << " nodes=" << nodes
              << " workload=" << workload << "\n"
              << "  tasks done/failed:  " << metrics.tasks_done() << "/"
              << metrics.tasks_failed() << "\n"
              << "  throughput avg/peak: " << metrics.avg_throughput()
              << " / " << metrics.peak_throughput() << " tasks/s\n"
              << "  utilization CPU/GPU: "
              << 100.0 * metrics.core_utilization(pilot.total_cores())
              << "% / "
              << 100.0 * metrics.gpu_utilization(pilot.total_gpus())
              << "%\n"
              << "  makespan:            " << metrics.makespan() << " s\n";
    if (ingress_svc) {
      const auto istats = ingress_svc->stats();
      const auto& lat = ingress_svc->submit_to_launch();
      std::cout << "  ingress offers:      " << istats.offered << " ("
                << istats.accepted << " accepted, " << istats.rejected
                << " rejected, " << istats.deferred << " deferred; "
                << istats.batches << " intake batches)\n"
                << "  submit->launch:      p50=" << lat.percentile(0.50)
                << "s p99=" << lat.percentile(0.99)
                << "s p999=" << lat.percentile(0.999) << "s\n";
    }

    if (cli.get_flag("report")) {
      analytics::SessionReport report;
      tmgr.for_each_task(
          [&](const core::Task& task) { report.add(task); });
      report.print(std::cout);
      if (tracing) {
        obs::OverheadReport::from_trace(*session.tracer()).print(std::cout);
      }
    }

    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      if (!out) {
        std::cerr << "cannot open --trace '" << trace_path << "'\n";
        return 2;
      }
      obs::write_chrome_trace(*session.tracer(), out);
      std::cout << "  trace:               " << trace_path << " ("
                << session.tracer()->size() << " records, "
                << session.tracer()->dropped() << " dropped)\n";
    }
    if (!prof_path.empty()) {
      std::ofstream out(prof_path);
      if (!out) {
        std::cerr << "cannot open --prof '" << prof_path << "'\n";
        return 2;
      }
      obs::write_prof(*session.tracer(), out);
      std::cout << "  prof:                " << prof_path << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
