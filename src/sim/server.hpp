// Serialized service center (c-server FIFO queue).
//
// Models the control-plane bottlenecks whose queueing behaviour drives every
// throughput result in the paper: slurmctld's step-creation RPC handler,
// a Flux instance's rank-0 broker loop, Dragon's central dispatcher. Work
// items carry their own service time; the center runs `parallelism` of them
// concurrently and the rest wait FIFO.
//
// Storage. A run holds thousands of servers (one exec server per Flux node)
// and pushes every task through several, so the per-item path allocates
// nothing once warm and an idle server holds no heap memory:
//   - Slot table. An in-service item's `done` callback and service time live
//     in one of at most `parallelism` slots, grown on demand and recycled
//     through an intrusive free list (O(1) claim and release). The
//     completion event captures only the server and the slot index, so it
//     fits Callback's inline buffer.
//   - Direct start. `submit` starts an item at once when a slot is free and
//     nothing waits; that is the same event, at the same point, as queueing
//     it and starting the queue head.
//   - Lazy FIFO. The queue of waiting items is created only when an item
//     first has to wait. It is a deque, so a drained backlog returns its
//     memory instead of keeping its peak.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "sim/engine.hpp"

namespace flotilla::sim {

class Server {
 public:
  using Done = Callback;

  Server(Engine& engine, int parallelism = 1);

  // Enqueues a work item that will occupy one server slot for
  // `service_time` virtual seconds, then fire `done`. `service_time` must
  // be finite and non-negative.
  void submit(Time service_time, Done done);

  // Items waiting for a slot (excludes items in service).
  std::size_t backlog() const { return waiting_ ? waiting_->size() : 0; }
  int in_service() const { return busy_; }
  bool idle() const { return busy_ == 0 && backlog() == 0; }

  // Cumulative observability for overhead accounting: items finished and
  // the service time they consumed (items still in service not counted).
  std::uint64_t completed() const { return completed_; }
  Time busy_time() const { return busy_accum_; }

 private:
  struct Item {
    Time service_time;
    Done done;
  };
  struct Slot {
    Item item;
    std::uint32_t next_free = 0;  // free-list link while the slot is unused
  };
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  void start(Item item);
  void start_next();
  void finish(std::uint32_t slot);

  Engine& engine_;
  int parallelism_;
  int busy_ = 0;
  std::uint64_t completed_ = 0;
  Time busy_accum_ = 0.0;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::unique_ptr<std::deque<Item>> waiting_;
};

}  // namespace flotilla::sim
