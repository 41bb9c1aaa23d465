// Counting resource with FIFO grant order.
//
// Models capacity-limited facilities: the platform-wide concurrent-srun
// ceiling, per-node core pools, dispatcher slots. Waiters are granted
// strictly in arrival order (no skipping), which is how Slurm's step
// admission behaves and what produces the paper's hard 50% utilization
// plateau in Experiment srun.
#pragma once

#include <cstdint>
#include <deque>

#include "sim/engine.hpp"

namespace flotilla::sim {

class Resource {
 public:
  using Granted = Callback;

  Resource(Engine& engine, std::int64_t capacity);

  // Requests `amount` units; `granted` fires (via the event queue, never
  // inline) once the units are assigned. Returns a ticket usable with
  // cancel_wait().
  std::uint64_t acquire(std::int64_t amount, Granted granted);

  // Immediately takes `amount` units if available *and* no one is queued
  // ahead; returns false otherwise.
  bool try_acquire(std::int64_t amount);

  // Returns `amount` units and grants as many queued waiters as now fit,
  // in FIFO order.
  void release(std::int64_t amount);

  // Removes a queued (not yet granted) request; returns false if the ticket
  // already fired or is unknown.
  bool cancel_wait(std::uint64_t ticket);

  std::int64_t capacity() const { return capacity_; }
  std::int64_t available() const { return available_; }
  std::int64_t in_use() const { return capacity_ - available_; }
  std::size_t queue_length() const { return waiters_.size(); }

 private:
  struct Waiter {
    std::uint64_t ticket;
    std::int64_t amount;
    Granted granted;
  };

  void grant_waiters();

  Engine& engine_;
  std::int64_t capacity_;
  std::int64_t available_;
  std::uint64_t next_ticket_ = 1;
  std::deque<Waiter> waiters_;
};

}  // namespace flotilla::sim
