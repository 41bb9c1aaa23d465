#include "core/service.hpp"

#include "util/error.hpp"

namespace flotilla::core {

ServiceManager::ServiceManager(Session& session, TaskManager& tmgr)
    : session_(session), tmgr_(tmgr) {
  tmgr_.agent().on_task_start([this](const Task& task) {
    const auto it = id_to_name_.find(task.id());
    if (it == id_to_name_.end()) return;
    const std::string name = it->second;
    auto& service = services_.at(name);
    if (service.startup_delay > 0.0) {
      session_.engine().in(service.startup_delay,
                           [this, name] { mark_ready(name); });
    } else {
      mark_ready(name);
    }
  });
  tmgr_.agent().add_final_listener([this](const Task& task) {
    const auto it = id_to_name_.find(task.id());
    if (it == id_to_name_.end()) return;
    auto& service = services_.at(it->second);
    service.ended = true;
    service.ready = false;
  });
}

std::string ServiceManager::start(ServiceDescription description,
                                  std::function<void()> on_ready) {
  FLOT_CHECK(!description.name.empty(), "service needs a name");
  FLOT_CHECK(!services_.count(description.name), "duplicate service '",
             description.name, "'");
  TaskDescription task;
  task.name = "service:" + description.name;
  task.demand = description.demand;
  task.duration = description.lifetime;
  task.modality = description.modality;
  task.backend_hint = description.backend_hint;
  task.stage = "services";
  const TaskId id = tmgr_.submit_task(std::move(task));

  Service service;
  service.startup_delay = description.startup_delay;
  if (on_ready) service.waiters.push_back(std::move(on_ready));
  id_to_name_.emplace(id, description.name);
  services_.emplace(std::move(description.name), std::move(service));
  return task_uid(id);
}

void ServiceManager::mark_ready(const std::string& name) {
  auto& service = services_.at(name);
  if (service.ended || service.ready) return;
  service.ready = true;
  auto waiters = std::move(service.waiters);
  service.waiters.clear();
  for (auto& waiter : waiters) waiter();
}

bool ServiceManager::ready(const std::string& name) const {
  const auto it = services_.find(name);
  return it != services_.end() && it->second.ready;
}

bool ServiceManager::running(const std::string& name) const {
  const auto it = services_.find(name);
  return it != services_.end() && !it->second.ended;
}

void ServiceManager::when_ready(const std::string& name,
                                std::function<void()> fn) {
  const auto it = services_.find(name);
  FLOT_CHECK(it != services_.end(), "unknown service '", name, "'");
  if (it->second.ready) {
    session_.engine().in(0.0, std::move(fn));
    return;
  }
  FLOT_CHECK(!it->second.ended, "service '", name, "' already ended");
  it->second.waiters.push_back(std::move(fn));
}

}  // namespace flotilla::core
