// Service tasks: persistent components running inside the pilot.
//
// §2 motivates them directly: "reinforcement learning agents, active
// learning loops, and streaming pipelines ... often require persistent
// services (e.g., learners, replay buffers)". RP accepts service
// descriptions alongside task descriptions (Fig 1 ②); Flotilla models a
// service as a long-lived task whose readiness gates dependent work.
#pragma once

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/task_manager.hpp"

namespace flotilla::core {

struct ServiceDescription {
  std::string name;  // registry key; must be unique per manager
  platform::ResourceDemand demand;
  // How long the service stays up. Services outlive the workload they
  // serve; pick a lifetime covering the session (there is no preemptive
  // cancel inside a backend).
  sim::Time lifetime = 3600.0;
  // Delay between the service process starting and its endpoint accepting
  // clients (model load, port bind, ...).
  sim::Time startup_delay = 0.0;
  platform::TaskModality modality = platform::TaskModality::kExecutable;
  std::string backend_hint;
};

class ServiceManager {
 public:
  ServiceManager(Session& session, TaskManager& tmgr);

  // Launches the service through the normal task path; returns its task
  // uid. `on_ready` (optional) fires once the endpoint is up.
  std::string start(ServiceDescription description,
                    std::function<void()> on_ready = {});

  bool ready(const std::string& name) const;
  bool running(const std::string& name) const;

  // Invokes `fn` as soon as the named service is ready (immediately if it
  // already is). Throws for unknown services.
  void when_ready(const std::string& name, std::function<void()> fn);

  std::size_t count() const { return services_.size(); }

 private:
  struct Service {
    sim::Time startup_delay = 0.0;
    bool ready = false;
    bool ended = false;
    std::vector<std::function<void()>> waiters;
  };

  void mark_ready(const std::string& name);

  Session& session_;
  TaskManager& tmgr_;
  std::unordered_map<std::string, Service> services_;
  std::unordered_map<TaskId, std::string> id_to_name_;
};

}  // namespace flotilla::core
