#include "campaign.hpp"

#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "dragon/dragon_backend.hpp"
#include "flux/flux_backend.hpp"
#include "workloads/impeccable.hpp"
#include "workloads/synthetic.hpp"

namespace perfbench {

const std::vector<WorkloadSpec>& workloads() {
  // Sized for a 4-core box: each campaign is 1-3 s of host time, so a run
  // holds several repetitions and every timing window is far above the
  // ~100 ms floor.
  static const std::vector<WorkloadSpec> kWorkloads = {
      {Workload::kFluxNull, "flux_null_100k", 64, 100'000, false, 150'000},
      {Workload::kHybridMixed, "hybrid_mixed_100k", 64, 100'000, false,
       150'000},
      {Workload::kImpeccable, "impeccable_9408", 9408, 0, false, 150'000},
      {Workload::kServiceJournal, "service_journal", 16, 100'000, true,
       150'000},
  };
  return kWorkloads;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& spec : workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

fl::core::PilotDescription pilot_description(const WorkloadSpec& spec) {
  fl::core::PilotDescription pdesc;
  pdesc.nodes = spec.nodes;
  switch (spec.id) {
    case Workload::kFluxNull:
    case Workload::kImpeccable:
      pdesc.backends = {{.type = "flux", .partitions = 1}};
      break;
    case Workload::kHybridMixed:
      // flotilla-run --backend hybrid --partitions 16: flux x16 on half
      // the nodes, one dragon runtime on the other half (Fig 5d).
      pdesc.backends = {
          {.type = "flux", .partitions = 16, .nodes = spec.nodes / 2},
          {.type = "dragon", .partitions = 1,
           .nodes = spec.nodes - spec.nodes / 2}};
      break;
    case Workload::kServiceJournal:
      pdesc.backends = {{.type = "dragon", .partitions = 1}};
      break;
  }
  return pdesc;
}

std::unique_ptr<fl::platform::TaskBackend> make_real_backend(
    fl::sim::Engine& engine, fl::platform::Cluster& cluster,
    const fl::platform::Calibration& cal, std::uint64_t seed,
    const fl::core::BackendSpec& backend, fl::platform::NodeRange span,
    fl::sim::Resource* srun_ceiling) {
  if (backend.type == "flux") {
    return std::make_unique<fl::flux::FluxBackend>(
        engine, cluster, span, backend.partitions, cal.flux, seed,
        srun_ceiling, backend.flux_backfill_depth);
  }
  if (backend.type == "dragon") {
    return std::make_unique<fl::dragon::DragonBackend>(
        engine, cluster, span, cal.dragon, seed, backend.partitions);
  }
  throw std::runtime_error("perfbench: no backend type " + backend.type);
}

namespace {

double submit_cost(const fl::core::Session& session, const std::string& type) {
  const auto& core = session.calibration().core;
  return type == "flux" ? core.submit_cost_flux : core.submit_cost_dragon;
}

// Pilot::build_backends' allocation split: explicit node counts first,
// the rest shared near-equally.
std::vector<fl::platform::NodeRange> backend_spans(
    const fl::core::PilotDescription& pdesc,
    fl::platform::NodeRange allocation) {
  int fixed = 0, flexible = 0;
  for (const auto& b : pdesc.backends) {
    b.nodes > 0 ? fixed += b.nodes : ++flexible;
  }
  const int pool = allocation.count - fixed;
  std::vector<fl::platform::NodeRange> spans;
  fl::platform::NodeId next = allocation.first;
  int flex_seen = 0;
  for (const auto& b : pdesc.backends) {
    int count = b.nodes;
    if (count == 0) {
      count = pool / flexible + (flex_seen < pool % flexible ? 1 : 0);
      ++flex_seen;
    }
    spans.push_back({next, count});
    next += count;
  }
  return spans;
}

}  // namespace

std::string settings_line(const WorkloadSpec& spec, std::uint64_t seed) {
  // The header record carries the seed twice (its own field and this
  // line). Padding to the widest seed keeps the header one length for every
  // seed: the journal buffer grows by doubling from it, so its peak memory
  // would otherwise depend on how many digits the seed has.
  const std::string digits = std::to_string(seed);
  const std::size_t widest = std::to_string(~std::uint64_t{0}).size();
  return std::string("tool=perfbench;workload=") + spec.name +
         ";seed=" + digits + ";pad=" +
         std::string(2 * (widest - digits.size()), '0');
}

void set_up(Stack& stack, const WorkloadSpec& spec,
            const StackOptions& options) {
  stack.spec = &spec;
  stack.session = std::make_unique<fl::core::Session>(
      fl::platform::frontier_spec(), spec.nodes, options.seed);
  auto& session = *stack.session;
  // Components capture the trace handle at construction.
  if (options.tracing) session.enable_tracing();
  if (options.recover_prefix) {
    stack.scribe = std::make_unique<fl::journal::Scribe>(
        session, *options.recover_prefix);
  } else if (options.journal) {
    stack.scribe = std::make_unique<fl::journal::Scribe>(session);
  }
  if (stack.scribe) {
    stack.scribe->record_header(options.seed,
                                settings_line(spec, options.seed));
  }

  auto pdesc = pilot_description(spec);
  bool ready = false;
  std::string error;
  auto on_ready = [&ready, &error](bool ok, const std::string& e) {
    ready = ok;
    error = e;
  };
  if (!options.backends) {
    stack.pmgr = std::make_unique<fl::core::PilotManager>(session);
    auto& pilot = stack.pmgr->submit(std::move(pdesc));
    pilot.launch(on_ready);
    stack.agent = &pilot.agent();
    stack.allocation = pilot.allocation();
  } else {
    // What PilotManager::submit and Pilot::launch build, by hand: the
    // first pilot's allocation starts at node 0.
    stack.allocation = {0, pdesc.nodes};
    stack.srun_ceiling = std::make_unique<fl::sim::Resource>(
        session.engine(), session.cluster().spec().srun_concurrency_ceiling);
    stack.own_agent = std::make_unique<fl::core::Agent>(
        session, stack.allocation, pdesc.trace_tasks, pdesc.router);
    stack.agent = stack.own_agent.get();
    const auto spans = backend_spans(pdesc, stack.allocation);
    for (std::size_t i = 0; i < pdesc.backends.size(); ++i) {
      stack.agent->add_backend(
          options.backends(session, pdesc.backends[i], spans[i],
                           stack.srun_ceiling.get()),
          submit_cost(session, pdesc.backends[i].type));
    }
    stack.agent->bootstrap(on_ready);
  }
  session.run(600.0);
  if (!ready) throw std::runtime_error("pilot failed to launch: " + error);
  if (stack.scribe) stack.scribe->record_ready();
  stack.tmgr = std::make_unique<fl::core::TaskManager>(session, *stack.agent);
  if (stack.scribe) stack.scribe->attach(*stack.tmgr);
}

void submit(Stack& stack, double* call_s) {
  const auto& spec = *stack.spec;
  auto& tmgr = *stack.tmgr;
  // Times only the call into the RP API, not building its arguments.
  auto timed = [call_s](auto&& call) {
    const auto t0 = std::chrono::steady_clock::now();
    call();
    if (call_s) {
      *call_s += std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    }
  };
  switch (spec.id) {
    case Workload::kFluxNull: {
      tmgr.on_complete([](const fl::core::Task&) {});
      auto tasks = fl::workloads::uniform_tasks(spec.operations, 0.0);
      timed([&] { tmgr.submit(std::move(tasks)); });
      return;
    }
    case Workload::kHybridMixed: {
      tmgr.on_complete([](const fl::core::Task&) {});
      auto tasks = fl::workloads::mixed_tasks(spec.operations, 0.0);
      timed([&] { tmgr.submit(std::move(tasks)); });
      return;
    }
    case Workload::kImpeccable: {
      stack.workflow = std::make_unique<fl::core::Workflow>(tmgr);
      fl::workloads::build_impeccable(
          *stack.workflow, fl::workloads::impeccable_plan(spec.nodes),
          stack.session->seed());
      timed([&] { stack.workflow->start(); });
      return;
    }
    case Workload::kServiceJournal: {
      tmgr.on_complete([](const fl::core::Task&) {});
      // 10^6 open-loop Poisson clients at 700 offers/s, below the dragon
      // dispatcher's knee; deferral instead of rejection keeps every offer.
      fl::ingress::IngressConfig config;
      config.clients = 1'000'000;
      config.arrival.kind = fl::ingress::ArrivalKind::kPoisson;
      config.arrival.rate = 700.0;
      config.admit.policy = fl::ingress::AdmitPolicy::kDefer;
      config.total_offers = spec.operations;
      stack.ingress = std::make_unique<fl::ingress::IngressService>(
          *stack.session, tmgr, config);
      fl::core::TaskDescription proto;
      proto.demand.cores = 1;
      proto.duration = 0.5;
      proto.modality = fl::platform::TaskModality::kFunction;
      timed([&] { stack.ingress->start({proto}); });
      return;
    }
  }
}

std::size_t operations(const Stack& stack) {
  if (stack.spec->operations > 0) {
    return static_cast<std::size_t>(stack.spec->operations);
  }
  return static_cast<std::size_t>(
      fl::workloads::impeccable_plan(stack.spec->nodes).total_tasks());
}

Fingerprint fingerprint(Stack& stack) {
  const auto& metrics = stack.agent->profiler().metrics();
  auto& cluster = stack.session->cluster();
  Fingerprint fp;
  fp.submitted = stack.tmgr->submitted();
  fp.done = metrics.tasks_done();
  fp.failed = metrics.tasks_failed();
  fp.makespan = metrics.makespan();
  fp.avg_tput = metrics.avg_throughput();
  fp.peak_tput = metrics.peak_throughput();
  fp.core_util =
      metrics.core_utilization(cluster.total_cores(stack.allocation));
  fp.gpu_util = metrics.gpu_utilization(cluster.total_gpus(stack.allocation));
  if (stack.ingress) {
    const auto stats = stack.ingress->stats();
    fp.offered = stats.offered;
    fp.accepted = stats.accepted;
    fp.served_tput = metrics.window_throughput();
    fp.p50 = stack.ingress->submit_to_launch().percentile(0.50);
    fp.p99 = stack.ingress->submit_to_launch().percentile(0.99);
  }
  return fp;
}

std::string Fingerprint::str() const {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "submitted=%llu done=%llu failed=%llu makespan=%.17g "
                "avg_tput=%.17g peak_tput=%.17g core_util=%.17g "
                "gpu_util=%.17g offered=%llu accepted=%llu served=%.17g "
                "p50=%.17g p99=%.17g",
                static_cast<unsigned long long>(submitted),
                static_cast<unsigned long long>(done),
                static_cast<unsigned long long>(failed), makespan, avg_tput,
                peak_tput, core_util, gpu_util,
                static_cast<unsigned long long>(offered),
                static_cast<unsigned long long>(accepted), served_tput, p50,
                p99);
  return buf;
}

}  // namespace perfbench
