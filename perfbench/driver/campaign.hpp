// The four fixed benchmark campaigns and the stack each one runs on.
//
// A campaign is built in two phases so the benchmark can time them apart:
// set-up (Session, pilot or hand-built agent, the bootstrap run until the
// pilot is ready, the TaskManager) and the campaign itself (first submit
// until Session::run() drains). Every stack uses engine_threads=1.
//
// Three ways to bring up the backends share one set-up path:
//   - the public Pilot API (timed runs, recovery, the tracing run);
//   - a hand-built Agent whose backends come from a BackendFactory, so the
//     traced run can wrap each real backend in a timing decorator, or swap
//     it for a replay stub, while keeping the registration order, spans,
//     submit costs and srun ceiling the Pilot would have used.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/flotilla.hpp"
#include "ingress/ingress.hpp"
#include "journal/scribe.hpp"

namespace perfbench {

namespace fl = flotilla;

enum class Workload { kFluxNull, kHybridMixed, kImpeccable, kServiceJournal };

struct WorkloadSpec {
  Workload id;
  const char* name;
  int nodes;
  // Operations per campaign: tasks, or offers for the service workload.
  // Zero means "whatever the IMPECCABLE plan for `nodes` generates".
  int operations;
  // The journal is attached to the campaign itself (service workload).
  bool journaled;
  // Crash point for the recovery measurement: the journal is cut after
  // this many records.
  std::size_t crash_record;
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

// The pilot's backend stack for a workload, exactly as flotilla-run would
// describe it for the same configuration.
fl::core::PilotDescription pilot_description(const WorkloadSpec& spec);

// Builds the backend for one BackendSpec on `span`.
using BackendFactory = std::function<std::unique_ptr<fl::platform::TaskBackend>(
    fl::core::Session& session, const fl::core::BackendSpec& backend,
    fl::platform::NodeRange span, fl::sim::Resource* srun_ceiling)>;

// The real backend, built with the arguments Pilot::build_backends passes.
std::unique_ptr<fl::platform::TaskBackend> make_real_backend(
    fl::sim::Engine& engine, fl::platform::Cluster& cluster,
    const fl::platform::Calibration& cal, std::uint64_t seed,
    const fl::core::BackendSpec& backend, fl::platform::NodeRange span,
    fl::sim::Resource* srun_ceiling);

struct StackOptions {
  std::uint64_t seed = 42;
  // Empty: the public Pilot path. Set: a hand-built agent whose backends
  // this factory makes.
  BackendFactory backends;
  bool tracing = false;
  bool journal = false;
  // Validate mode: the journal prefix a recovering scribe checks against.
  const std::vector<fl::journal::Record>* recover_prefix = nullptr;
};

// One campaign's objects. Declaration order is destruction order in
// reverse: everything that registered with the session dies before it.
struct Stack {
  const WorkloadSpec* spec = nullptr;
  std::unique_ptr<fl::core::Session> session;
  std::unique_ptr<fl::journal::Scribe> scribe;
  std::unique_ptr<fl::core::PilotManager> pmgr;
  std::unique_ptr<fl::sim::Resource> srun_ceiling;
  std::unique_ptr<fl::core::Agent> own_agent;
  fl::core::Agent* agent = nullptr;
  fl::platform::NodeRange allocation;
  std::unique_ptr<fl::core::TaskManager> tmgr;
  std::unique_ptr<fl::core::Workflow> workflow;
  std::unique_ptr<fl::ingress::IngressService> ingress;

  fl::sim::Engine& engine() { return session->engine(); }
};

// The header line a journaled campaign records; recovery demands it back.
std::string settings_line(const WorkloadSpec& spec, std::uint64_t seed);

// Set-up phase: returns with the pilot ready and the TaskManager built.
// Throws if the pilot fails to come up.
void set_up(Stack& stack, const WorkloadSpec& spec,
            const StackOptions& options);

// Campaign phase, first half: everything the workload submits up front.
// When `call_s` is set, the host seconds spent inside the RP API calls
// that submit (TaskManager::submit, Workflow::start,
// IngressService::start) are added to it.
void submit(Stack& stack, double* call_s = nullptr);

// Operations the campaign has (tasks, or offers).
std::size_t operations(const Stack& stack);

// The paper-facing virtual results of a drained campaign. Two runs of the
// same workload and seed must agree on every field, bit for bit.
struct Fingerprint {
  std::uint64_t submitted = 0;
  std::uint64_t done = 0;
  std::uint64_t failed = 0;
  double makespan = 0.0;
  double avg_tput = 0.0;
  double peak_tput = 0.0;
  double core_util = 0.0;
  double gpu_util = 0.0;
  // Service workload only.
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  double served_tput = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;

  bool operator==(const Fingerprint&) const = default;
  std::string str() const;
};

Fingerprint fingerprint(Stack& stack);

}  // namespace perfbench
