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
//     it and starting the queue head. The item's `done` is moved straight
//     into its slot, and out of it when the item finishes: two relocations
//     from submit to call, three when it waited in the FIFO.
//   - Lazy FIFO. The queue of waiting items is created only when an item
//     first has to wait. It is a deque, so a drained backlog returns its
//     memory instead of keeping its peak.
//   - Holds. A FanOut may start an item on an idle server as a *hold*: an
//     in-service item with no callback whose completion event is not
//     pushed. Its slot records the release time and a seq reserved from
//     the engine, i.e. the key its completion event would have had. A hold
//     is the server's only work while it lasts. The next submit (or hold)
//     settles it: a hold whose key precedes the engine's current key is
//     retired (its completion accounted, as if the event had fired), any
//     other is materialized as a real completion event at its reserved
//     key. The accessors count a hold whose key has passed as finished, so
//     they read what they would read had its event fired.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "sim/engine.hpp"

namespace flotilla::sim {

class FanOut;

class Server {
 public:
  using Done = Callback;

  Server(Engine& engine, int parallelism = 1);

  // Enqueues a work item that will occupy one server slot for
  // `service_time` virtual seconds, then fire `done`. `service_time` must
  // be finite and non-negative.
  void submit(Time service_time, Done&& done);

  // Items waiting for a slot (excludes items in service).
  std::size_t backlog() const { return waiting_ ? waiting_->size() : 0; }
  int in_service() const { return busy_ - (hold_passed() ? 1 : 0); }
  bool idle() const { return in_service() == 0 && backlog() == 0; }

  // Cumulative observability for overhead accounting: items finished and
  // the service time they consumed (items still in service not counted).
  std::uint64_t completed() const {
    return completed_ + (hold_passed() ? 1 : 0);
  }
  Time busy_time() const {
    return hold_passed() ? busy_accum_ + slots_[held_].item.service_time
                         : busy_accum_;
  }

 private:
  friend class FanOut;

  struct Item {
    Time service_time;
    Done done;
  };
  struct Slot {
    Item item;
    Engine::EventKey key;         // completion key while held or carried
    std::uint32_t next_free = 0;  // free-list link while the slot is unused
  };
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  std::uint32_t claim_slot();
  void start(Time service_time, Done&& done);
  void start_next();
  void finish(std::uint32_t slot);
  // Frees `slot` with its completion accounted; returns its `done`.
  Done release(std::uint32_t slot);

  // FanOut's side: hold() claims a slot on an idle server as a hold and
  // returns it (kNoSlot when the server is not idle); carry() gives a
  // held or in-service slot its `done` and materializes it if still held.
  std::uint32_t hold(Time service_time);
  void carry(std::uint32_t slot, Done&& done);
  bool hold_passed() const {
    return held_ != kNoSlot &&
           slots_[held_].key < engine_.current_key();
  }
  // Retires a live hold whose key has passed, else materializes it.
  void settle();
  void materialize();  // pushes the live hold's event at its reserved key

  Engine& engine_;
  int parallelism_;
  int busy_ = 0;
  std::uint32_t free_head_ = kNoSlot;
  std::uint32_t held_ = kNoSlot;  // the slot of the live hold, if any
  std::uint64_t completed_ = 0;
  Time busy_accum_ = 0.0;
  std::vector<Slot> slots_;
  std::unique_ptr<std::deque<Item>> waiting_;
};

// One item on each of several servers, with one `done` once all of them
// completed: a Flux job's shim spawns across its nodes. Targets are added
// in submit order, then launched.
//
// Exact event elision. Submitting every target would push one completion
// event per idle target and count them down; only the last of them does
// anything. launch() instead holds every idle target (reserving the seq
// its event would have had, in the same order) and pushes one event, the
// *carrier*: the hold with the maximum key, which is the event that would
// have ended the countdown among the idle ones. Busy targets queue as a
// submit would queue them. The countdown covers the busy targets plus the
// carrier; when there is nothing to count (every target idle) the carrier
// fires `done` itself. Every event that still exists keeps its key, so a
// simulation with elided holds takes the same decisions at the same
// times; it only processes fewer calendar events.
// A single target is a plain submit: it reserves and holds nothing.
class FanOut {
 public:
  void add(Server& server, Time service_time);
  void launch(Server::Done&& done);

 private:
  struct Target {
    Server* server;
    Time service_time;
    std::uint32_t slot;  // held slot, or Server::kNoSlot
  };
  std::vector<Target> targets_;  // scratch reused across launches
};

}  // namespace flotilla::sim
