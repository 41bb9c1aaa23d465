// Serialized service center (c-server FIFO queue).
//
// Models the control-plane bottlenecks whose queueing behaviour drives every
// throughput result in the paper: slurmctld's step-creation RPC handler,
// a Flux instance's rank-0 broker loop, Dragon's central dispatcher. Work
// items carry their own service time; the center runs `parallelism` of them
// concurrently and the rest wait FIFO.
#pragma once

#include <cstdint>
#include <deque>

#include "sim/engine.hpp"

namespace flotilla::sim {

class Server {
 public:
  using Done = Callback;

  Server(Engine& engine, int parallelism = 1);

  // Enqueues a work item that will occupy one server slot for
  // `service_time` virtual seconds, then fire `done`.
  void submit(Time service_time, Done done);

  // Items waiting for a slot (excludes items in service).
  std::size_t backlog() const { return queue_.size(); }
  int in_service() const { return busy_; }
  bool idle() const { return busy_ == 0 && queue_.empty(); }

  // Cumulative observability for overhead accounting.
  std::uint64_t completed() const { return completed_; }
  Time busy_time() const;

 private:
  struct Item {
    Time service_time;
    Done done;
  };

  void start_next();
  void finish(Done done);

  Engine& engine_;
  int parallelism_;
  int busy_ = 0;
  std::uint64_t completed_ = 0;
  Time busy_accum_ = 0.0;
  std::deque<Item> queue_;
};

}  // namespace flotilla::sim
