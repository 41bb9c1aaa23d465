// Deterministic discrete-event simulation engine, optionally partitioned
// into shards drained by a small worker pool (docs/sharding.md).
//
// Single-shard mode (the default Config) is the engine the whole Flotilla
// stack runs on: one calendar ordered by (time, insertion sequence); ties
// at equal time resolve in insertion order, which makes every simulation
// fully deterministic for a given seed — a property the regression tests
// rely on.
//
// Sharded mode (Config{shards > 1}) serves the storm kernel
// (sim/storm.hpp) and the engine's own tests. Every event belongs to a
// shard, chosen by the caller through at(shard, ...), and each shard's
// events stay ordered by (time, shard-local sequence). Shards advance in
// conservative lookahead windows: each round drains, per shard, every
// event inside [T, T + lookahead] where T is the global minimum next
// event time. With lookahead == 0 the round degenerates to the
// same-timestamp batch drain — all shards drain exactly the events at T,
// which keeps global virtual time monotone. Cross-shard scheduling is
// buffered in per-(source, destination) ordered mailboxes during a round
// and merged deterministically (destination-major, then source, then
// FIFO) at the round barrier, clamped to the window end so no delivery
// can land inside a window another shard already drained.
//
// Threads: Config{threads > 1} drains the shards of a round concurrently
// on a persistent worker pool (shard s is owned by worker s % threads).
// Because each calendar has a single owner per round, mailboxes are
// single-writer, and the merge is deterministic, the observable execution
// is byte-identical for any thread count — the shards×threads matrix test
// in tests/sharded_engine_test.cpp asserts exactly that for the storm
// kernel. Callbacks that run under threads > 1 must confine their writes
// to shard-local state; the analyzer's storm-root reachability proof
// (docs/correctness.md#confinement-proofs) checks that the storm kernel
// reaches no stack code.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "sim/calendar.hpp"

namespace flotilla::sim {

// Shard handle. Shard 0 is the control shard: events scheduled outside
// any event context land there.
using ShardId = int;
inline constexpr ShardId kControlShard = 0;

class Engine {
 public:
  using Callback = sim::Callback;

  struct Config {
    int shards = 1;
    // Worker threads draining shards inside run(); clamped to [1, shards].
    int threads = 1;
    // Conservative lookahead window width. 0 selects the same-timestamp
    // batch-drain fallback (global time stays monotone). A positive
    // window requires every cross-shard delay to be >= lookahead for the
    // schedule to be unaffected by the shard count; sub-window sends are
    // clamped to the window end (see docs/sharding.md).
    Time lookahead = 0.0;
  };

  // `slot` is the calendar slot the event occupies (unused by mailbox
  // sends); cancel() checks it against `seq`, so an id outliving its event
  // never touches whatever event reuses the slot.
  struct EventId {
    std::uint64_t seq = 0;
    ShardId shard = 0;
    std::uint32_t slot = 0;
    friend bool operator==(EventId a, EventId b) {
      return a.seq == b.seq && a.shard == b.shard && a.slot == b.slot;
    }
  };

  Engine();
  explicit Engine(Config config);
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  int shards() const { return config_.shards; }
  int threads() const { return config_.threads; }
  Time lookahead() const { return config_.lookahead; }

  // Inside an event callback: the time of the executing event (its
  // shard's local clock). Outside: the committed global clock.
  Time now() const;

  // Shard of the executing event, or kControlShard outside callbacks.
  ShardId current_shard() const;

  // Schedules `cb` at absolute virtual time `t` (>= now, else clamped to
  // now: an event can never fire in the past) on the current shard.
  EventId at(Time t, Callback cb);

  // Schedules `cb` after `delay` virtual seconds (negative delays clamp
  // to zero) on the current shard.
  EventId in(Time delay, Callback cb) { return at(now() + delay, std::move(cb)); }

  // Shard-targeted scheduling. From outside a callback, or from a
  // callback on the same shard, this inserts directly into the target
  // calendar. From a callback on a *different* shard it becomes a
  // mailbox send: buffered in the per-(source, destination) FIFO and
  // merged at the round barrier, with the delivery time clamped to the
  // current window end. Either way the returned id cancels it.
  EventId at(ShardId shard, Time t, Callback cb);
  EventId in(ShardId shard, Time delay, Callback cb) {
    return at(shard, now() + delay, std::move(cb));
  }

  // Cancels a pending event; cancelling an already-fired or unknown event
  // is a harmless no-op and returns false. Cross-shard cancellation is
  // only safe from the coordinator (between rounds) or under threads==1.
  bool cancel(EventId id);

  // Runs until the event queue drains, `until` is reached, or stop() is
  // called. Events scheduled exactly at `until` do fire. Returns the
  // number of events processed by this call.
  std::uint64_t run(Time until = kInfiniteTime);

  // Processes exactly one event (in deterministic global order, also in
  // sharded mode); returns false if the queue is empty. Stepping always
  // executes on the calling thread regardless of Config::threads.
  bool step();

  // Requests that the current run() invocation return early: after the
  // current event in single-shard mode, after the current drain round in
  // sharded mode.
  void stop() { stop_requested_.store(true, std::memory_order_relaxed); }

  bool empty() const;
  std::size_t pending() const;
  std::uint64_t processed() const;

  // Virtual time of the earliest pending event, or kInfiniteTime.
  // Non-const: peeking prunes cancellation tombstones (observable state
  // is unchanged). Undelivered mailbox sends are not visible here; they
  // only exist transiently inside a drain round.
  Time next_event_time();

  // Post-event hook: invoked after every processed event's callback
  // returns, with now() still at the event's time. Single consumer —
  // invariant monitors (src/check) use it to audit the simulation between
  // events. Pass an empty callback to clear. Never fires for events that
  // were cancelled. Under threads > 1 the hook fires on worker threads
  // and must be thread-safe.
  void set_post_event_hook(Callback hook) { post_event_hook_ = std::move(hook); }

  // Trace probe: like the post-event hook but reserved for the tracing
  // subsystem (src/obs), which samples event-loop progress through it —
  // keeping both consumers independent. Fires after the post-event hook
  // with the cumulative committed processed-event count.
  using TraceProbe = std::function<void(Time now, std::uint64_t processed)>;
  void set_trace_probe(TraceProbe probe) { trace_probe_ = std::move(probe); }

 private:
  // Cross-shard send ids live in a distinct keyspace from calendar
  // sequence numbers so EventId stays a plain value.
  static constexpr std::uint64_t kSendBit = 1ull << 63;

  struct PendingSend {
    Time time;
    std::uint64_t id;  // kSendBit-tagged registry key
    Callback callback;
  };

  // Cache-line aligned so adjacent shards' hot counters never false-share
  // when different workers drain them concurrently.
  struct alignas(64) Shard {
    EventCalendar calendar;
    std::uint64_t next_seq = 1;
    // Owner-confined during a round; read by the coordinator between
    // rounds (the round barrier publishes them).
    Time local_now = 0.0;
    std::uint64_t processed = 0;
    std::uint64_t round_processed = 0;
    // Outboxes, destination-indexed: sends buffered during a round, in
    // the deterministic order this shard issued them.
    std::vector<std::vector<PendingSend>> outbox;
    // Delivered-send cancellation index: send id -> calendar handle.
    std::unordered_map<std::uint64_t, EventCalendar::Handle> delivered_sends;
  };

  struct ExecContext {  // thread-local active-event frame
    const Engine* engine = nullptr;
    ShardId shard = kControlShard;
    Time now = 0.0;
  };
  static thread_local ExecContext tls_ctx_;
  const ExecContext* context() const;

  void execute(Shard& shard, ShardId shard_id, EventCalendar::Popped* event);
  EventId enqueue_send(ShardId to, Time t, Callback cb);
  void deliver_sends();
  bool advance_one(Time until, bool honor_stop);  // sequential sharded stepper
  std::uint64_t run_single(Time until);
  std::uint64_t run_sequential(Time until);
  std::uint64_t run_parallel(Time until);
  Time min_next_time();
  void ensure_workers();
  void worker_loop(int worker, int stride);
  void drain_shard(ShardId shard_id, Time window_end);

  Config config_;
  Time now_ = 0.0;  // committed global clock (max processed event time)
  std::uint64_t committed_processed_ = 0;
  std::atomic<bool> stop_requested_{false};
  Callback post_event_hook_;
  TraceProbe trace_probe_;
  std::vector<Shard> shards_;

  // Sequential sharded stepping state (threads == 1 / step()).
  bool round_active_ = false;
  ShardId round_cursor_ = 0;
  Time round_window_ = 0.0;
  Time watermark_ = 0.0;  // end of the last opened window; delivery clamp

  // Cross-shard send registry: id -> live. Guarded — the only engine
  // state that two threads may touch in the same instant (cancel vs
  // delivery); everything else is owner-confined per round.
  mutable std::mutex send_mutex_;
  std::uint64_t next_send_id_ = 1;
  std::unordered_map<std::uint64_t, char> live_sends_;

  // Worker pool (lazily started by the first parallel run()).
  std::vector<std::thread> workers_;
  std::mutex pool_mutex_;
  std::condition_variable round_cv_;
  std::condition_variable done_cv_;
  std::uint64_t round_generation_ = 0;
  int workers_done_ = 0;
  Time pool_window_ = 0.0;
  bool pool_shutdown_ = false;
};

}  // namespace flotilla::sim
