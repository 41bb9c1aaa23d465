// Pilot: a resource placeholder plus the agent that runs on it (§3).
//
// A pilot description names the node count and the backend stack to bring
// up inside the allocation — the five runtime configurations of Table 1 are
// all expressible here:
//
//   {nodes=4,    {srun}}                          -> Experiment srun
//   {nodes=1024, {flux x1}}                       -> Experiment flux_1
//   {nodes=64,   {flux x16}}                      -> Experiment flux_n
//   {nodes=64,   {dragon}}                        -> Experiment dragon
//   {nodes=64,   {flux x8 on 32n, dragon on 32n}} -> Experiment flux+dragon
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/agent.hpp"
#include "core/session.hpp"
#include "sim/resource.hpp"

namespace flotilla::core {

struct BackendSpec {
  std::string type;    // "srun" | "flux" | "dragon"
  int partitions = 1;  // flux/dragon: concurrent instances
  int nodes = 0;       // nodes for this backend; 0 = equal share of the rest
  // flux scheduling policy: 1 = strict FCFS, >1 = backfill window.
  int flux_backfill_depth = 64;
};

struct PilotDescription {
  int nodes = 1;
  std::vector<BackendSpec> backends{{"srun"}};
  // Per-task state records (obs kTaskState) in the session's tracer;
  // needs Session::enable_tracing before the pilot is submitted.
  bool trace_tasks = false;
  RouterPolicy router = RouterPolicy::kStatic;
};

enum class PilotState {
  kNew,
  kLaunching,
  kActive,    // agent up, at least one backend ready
  kFailed,    // no backend came up
  kCanceled,  // torn down
};

std::string_view to_string(PilotState state);

class Pilot {
 public:
  using ReadyHandler = std::function<void(bool ok, std::string error)>;

  Pilot(Session& session, std::string uid, PilotDescription description,
        platform::NodeRange allocation);

  const std::string& uid() const { return uid_; }
  const PilotDescription& description() const { return description_; }
  PilotState state() const { return state_; }
  platform::NodeRange allocation() const { return allocation_; }

  // Builds the backend stack and bootstraps the agent; `ready` fires once.
  void launch(ReadyHandler ready);
  void cancel();

  Agent& agent() { return *agent_; }
  sim::Resource& srun_ceiling() { return srun_ceiling_; }

  std::int64_t total_cores() const;
  std::int64_t total_gpus() const;

 private:
  void build_backends();

  Session& session_;
  std::string uid_;
  PilotDescription description_;
  platform::NodeRange allocation_;
  PilotState state_ = PilotState::kNew;
  sim::Resource srun_ceiling_;  // allocation-wide concurrent-srun ceiling
  std::unique_ptr<Agent> agent_;
};

class PilotManager {
 public:
  explicit PilotManager(Session& session) : session_(session) {}

  // Carves a contiguous allocation out of the cluster and creates the
  // pilot. Throws if the cluster has too few nodes left.
  Pilot& submit(PilotDescription description);

  std::size_t pilot_count() const { return pilots_.size(); }
  Pilot& pilot(std::size_t i) { return *pilots_.at(i); }

 private:
  Session& session_;
  std::vector<std::unique_ptr<Pilot>> pilots_;
  platform::NodeId next_node_ = 0;
};

}  // namespace flotilla::core
