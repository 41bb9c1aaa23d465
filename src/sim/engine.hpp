// Deterministic discrete-event simulation engine.
//
// One calendar ordered by (time, insertion sequence); ties at equal time
// resolve in insertion order, which makes every simulation fully
// deterministic for a given seed — a property the regression tests rely
// on. The engine is single-threaded: callbacks run on the thread that
// calls run() or step(), one at a time.
//
// Cost of one event: a push and a pop on the calendar's binary heap (see
// calendar.hpp for the key order), and two relocations of its closure,
// into its calendar slot and out of it to run (see callback.hpp). The
// scheduling calls take the closure as `Callback&&`, so passing it on
// never moves it.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/calendar.hpp"

namespace flotilla::sim {

class Engine {
 public:
  using Callback = sim::Callback;

  // `slot` is the calendar slot the event occupies; cancel() checks it
  // against `seq`, so an id outliving its event never touches whatever
  // event reuses the slot.
  using EventId = EventCalendar::Handle;

  // An event's place in the calendar order: events fire by (time, seq).
  struct EventKey {
    Time time = 0.0;
    std::uint64_t seq = 0;
    friend bool operator<(EventKey a, EventKey b) {
      return a.time != b.time ? a.time < b.time : a.seq < b.seq;
    }
  };

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Inside an event callback: the time of the executing event. Outside:
  // the time of the last processed event, or `until` once run(until)
  // drained its window.
  Time now() const { return now_; }

  // Key of the executing event. Outside callbacks: the key of the last
  // processed event, or (until, next unissued seq) once run(until) has
  // drained every event at or before `until` — the boundary that every
  // key issued so far at or before `until` precedes, and no later one
  // does.
  EventKey current_key() const { return last_key_; }

  // Key reservation. reserve_seq() issues the sequence number the next
  // at() would have used, without pushing an event; at_reserved() later
  // pushes an event at a key built from it. Because the seq was issued in
  // the reserving call's place, the event sorts exactly where an event
  // pushed then would have, and every other event keeps the key it would
  // have had. `key` must not precede current_key(), and each reserved seq
  // may be pushed at most once.
  std::uint64_t reserve_seq() { return next_seq_++; }
  EventId at_reserved(EventKey key, Callback&& cb);

  // Schedules `cb` at absolute virtual time `t` (>= now, else clamped to
  // now: an event can never fire in the past). `t` must be finite.
  EventId at(Time t, Callback&& cb);

  // Schedules `cb` after `delay` virtual seconds (negative delays clamp
  // to zero).
  EventId in(Time delay, Callback&& cb);

  // Cancels a pending event; cancelling an already-fired or unknown event
  // is a harmless no-op and returns false.
  bool cancel(EventId id) { return calendar_.cancel(id); }

  // Runs until the event queue drains, `until` is reached, or stop() is
  // called. Events scheduled exactly at `until` do fire. Returns the
  // number of events processed by this call.
  std::uint64_t run(Time until = kInfiniteTime);

  // Processes exactly one event; returns false if the queue is empty.
  bool step();

  // Requests that the current run() invocation return after the current
  // event.
  void stop() { stop_requested_ = true; }

  bool empty() const { return calendar_.empty(); }
  std::size_t pending() const { return calendar_.live(); }
  std::uint64_t processed() const { return processed_; }

  // Virtual time of the earliest pending event, or kInfiniteTime.
  // Non-const: peeking prunes cancellation tombstones (observable state
  // is unchanged).
  Time next_event_time() { return calendar_.next_time(); }

  // Post-event hook: invoked after every processed event's callback
  // returns, with now() still at the event's time. Single consumer —
  // invariant monitors (src/check) use it to audit the simulation between
  // events. Pass an empty callback to clear. Never fires for events that
  // were cancelled.
  void set_post_event_hook(Callback hook) { post_event_hook_ = std::move(hook); }

  // Trace probe: like the post-event hook but reserved for the tracing
  // subsystem (src/obs), which samples event-loop progress through it —
  // keeping both consumers independent. Fires after the post-event hook
  // with the cumulative processed-event count.
  using TraceProbe = std::function<void(Time now, std::uint64_t processed)>;
  void set_trace_probe(TraceProbe probe) { trace_probe_ = std::move(probe); }

 private:
  // Pops and runs the calendar top; the caller has just pruned it.
  void fire_next();

  EventCalendar calendar_;
  std::uint64_t next_seq_ = 1;
  Time now_ = 0.0;
  EventKey last_key_;
  std::uint64_t processed_ = 0;
  bool stop_requested_ = false;
  Callback post_event_hook_;
  TraceProbe trace_probe_;
};

}  // namespace flotilla::sim
