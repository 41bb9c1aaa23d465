#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace flotilla::sim {

thread_local Engine::ExecContext Engine::tls_ctx_;

Engine::Engine() : Engine(Config{}) {}

Engine::Engine(Config config) : config_(config) {
  FLOT_CHECK(config_.shards >= 1, "engine needs at least one shard");
  FLOT_CHECK(config_.threads >= 1, "engine needs at least one thread");
  FLOT_CHECK(config_.lookahead >= 0.0, "negative lookahead window");
  shards_.resize(static_cast<std::size_t>(config_.shards));
  for (Shard& shard : shards_) {
    shard.outbox.resize(static_cast<std::size_t>(config_.shards));
  }
}

Engine::~Engine() {
  {
    std::lock_guard lock(pool_mutex_);
    pool_shutdown_ = true;
  }
  round_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

const Engine::ExecContext* Engine::context() const {
  return tls_ctx_.engine == this ? &tls_ctx_ : nullptr;
}

Time Engine::now() const {
  const ExecContext* ctx = context();
  return ctx != nullptr ? ctx->now : now_;
}

ShardId Engine::current_shard() const {
  const ExecContext* ctx = context();
  return ctx != nullptr ? ctx->shard : kControlShard;
}

Engine::EventKey Engine::current_key() const {
  const ExecContext* ctx = context();
  return ctx != nullptr ? EventKey{ctx->now, ctx->seq} : last_key_;
}

std::uint64_t Engine::reserve_seq() {
  FLOT_CHECK(config_.shards == 1, "key reservation needs a single shard");
  return shards_[0].next_seq++;
}

Engine::EventId Engine::at_reserved(EventKey key, Callback cb) {
  FLOT_CHECK(cb, "scheduling an empty callback");
  FLOT_CHECK(config_.shards == 1, "key reservation needs a single shard");
  FLOT_CHECK(key.seq != 0 && key.seq < shards_[0].next_seq,
             "seq ", key.seq, " was never reserved");
  FLOT_CHECK(!(key < current_key()), "reserved key at ", key.time,
             " precedes the running event");
  const auto handle = shards_[0].calendar.push(key.time, key.seq, std::move(cb));
  return EventId{handle.seq, kControlShard, handle.slot};
}

Engine::EventId Engine::at(Time t, Callback cb) {
  return at(current_shard(), t, std::move(cb));
}

Engine::EventId Engine::at(ShardId shard, Time t, Callback cb) {
  FLOT_CHECK(cb, "scheduling an empty callback");
  FLOT_CHECK(std::isfinite(t), "scheduling at non-finite time ", t);
  FLOT_CHECK(shard >= 0 && shard < config_.shards, "shard ", shard,
             " out of range (", config_.shards, " shards)");
  const ExecContext* ctx = context();
  if (ctx != nullptr && ctx->shard != shard) {
    // Cross-shard from inside an event: mailbox send, merged at the
    // round barrier (an event can never fire in the sender's past).
    if (t < ctx->now) t = ctx->now;
    return enqueue_send(shard, t, std::move(cb));
  }
  const Time floor = ctx != nullptr ? ctx->now : now_;
  if (t < floor) t = floor;
  Shard& sh = shards_[static_cast<std::size_t>(shard)];
  const auto handle = sh.calendar.push(t, sh.next_seq++, std::move(cb));
  return EventId{handle.seq, shard, handle.slot};
}

Engine::EventId Engine::enqueue_send(ShardId to, Time t, Callback cb) {
  Shard& src = shards_[static_cast<std::size_t>(tls_ctx_.shard)];
  std::uint64_t id = 0;
  {
    std::lock_guard lock(send_mutex_);
    id = kSendBit | next_send_id_++;
    live_sends_.emplace(id, 1);
  }
  src.outbox[static_cast<std::size_t>(to)].push_back(
      PendingSend{t, id, std::move(cb)});
  return EventId{id, to};
}

bool Engine::cancel(EventId id) {
  if (id.shard < 0 || id.shard >= config_.shards) return false;
  Shard& sh = shards_[static_cast<std::size_t>(id.shard)];
  if ((id.seq & kSendBit) != 0) {
    {
      std::lock_guard lock(send_mutex_);
      if (live_sends_.erase(id.seq) == 1) return true;  // still in flight
    }
    const auto it = sh.delivered_sends.find(id.seq);
    if (it == sh.delivered_sends.end()) return false;
    const EventCalendar::Handle handle = it->second;
    sh.delivered_sends.erase(it);
    return sh.calendar.cancel(handle);
  }
  return sh.calendar.cancel(EventCalendar::Handle{id.seq, id.slot});
}

void Engine::deliver_sends() {
  // Deterministic merge: destination-major, then source shard, then the
  // FIFO order the source issued the sends in. Deliveries clamp to the
  // end of the last opened window, so nothing lands inside a window a
  // shard has already drained past.
  for (std::size_t dst = 0; dst < shards_.size(); ++dst) {
    Shard& dsh = shards_[dst];
    for (std::size_t src = 0; src < shards_.size(); ++src) {
      auto& box = shards_[src].outbox[dst];
      for (PendingSend& send : box) {
        bool live = false;
        {
          std::lock_guard lock(send_mutex_);
          live = live_sends_.erase(send.id) == 1;
        }
        if (!live) continue;  // cancelled in flight
        const Time t = std::max(send.time, watermark_);
        const auto handle = dsh.calendar.push(
            t, dsh.next_seq++,
            [this, dst, id = send.id, cb = std::move(send.callback)]() mutable {
              shards_[dst].delivered_sends.erase(id);
              cb();
            });
        dsh.delivered_sends.emplace(send.id, handle);
      }
      box.clear();
    }
  }
}

Time Engine::min_next_time() {
  Time t = kInfiniteTime;
  for (Shard& shard : shards_) {
    t = std::min(t, shard.calendar.next_time());
  }
  return t;
}

Time Engine::next_event_time() { return min_next_time(); }

bool Engine::empty() const {
  for (const Shard& shard : shards_) {
    if (!shard.calendar.empty()) return false;
  }
  std::lock_guard lock(send_mutex_);
  return live_sends_.empty();
}

std::size_t Engine::pending() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) n += shard.calendar.live();
  std::lock_guard lock(send_mutex_);
  return n + live_sends_.size();
}

std::uint64_t Engine::processed() const {
  const ExecContext* ctx = context();
  if (ctx != nullptr && config_.threads > 1) {
    // Inside a parallel drain round only the caller's own lane is
    // coherent; other shards' in-round counts commit at the barrier.
    return committed_processed_ +
           shards_[static_cast<std::size_t>(ctx->shard)].round_processed;
  }
  return committed_processed_;
}

void Engine::execute(Shard& shard, ShardId shard_id,
                     EventCalendar::Popped* event) {
  const ExecContext saved = tls_ctx_;
  tls_ctx_ = ExecContext{this, shard_id, event->time, event->seq};
  shard.local_now = event->time;
  event->callback();
  if (post_event_hook_) post_event_hook_();
  if (trace_probe_) {
    trace_probe_(event->time,
                 committed_processed_ + shard.round_processed);
  }
  tls_ctx_ = saved;
}

// --- single-shard (historical) path --------------------------------------

bool Engine::step() {
  if (config_.shards == 1) {
    Shard& sh = shards_[0];
    EventCalendar::Popped event;
    if (!sh.calendar.pop(&event)) return false;
    now_ = event.time;
    last_key_ = EventKey{event.time, event.seq};
    ++committed_processed_;
    ++sh.processed;
    execute(sh, kControlShard, &event);
    return true;
  }
  return advance_one(kInfiniteTime, /*honor_stop=*/false);
}

std::uint64_t Engine::run_single(Time until) {
  Shard& sh = shards_[0];
  std::uint64_t count = 0;
  while (!stop_requested_.load(std::memory_order_relaxed)) {
    const Time t = sh.calendar.next_time();
    if (t == kInfiniteTime) break;
    if (t > until) {
      // The clock never runs backwards (run(until) below now is a no-op),
      // so key order stays processing order.
      if (until >= now_) {
        now_ = until;
        // Everything issued so far at or before `until` has fired.
        last_key_ = EventKey{until, sh.next_seq};
      }
      break;
    }
    step();
    ++count;
  }
  return count;
}

// --- sharded sequential path (threads == 1, and step()) -------------------

bool Engine::advance_one(Time until, bool honor_stop) {
  while (true) {
    if (!round_active_) {
      if (honor_stop && stop_requested_.load(std::memory_order_relaxed)) {
        return false;
      }
      deliver_sends();
      const Time t = min_next_time();
      if (t == kInfiniteTime) return false;
      if (t > until) {
        now_ = until;
        return false;
      }
      round_window_ =
          config_.lookahead > 0.0 ? t + config_.lookahead : t;
      round_window_ = std::min(round_window_, until);
      watermark_ = round_window_;
      round_active_ = true;
      round_cursor_ = 0;
    }
    while (round_cursor_ < config_.shards) {
      Shard& sh = shards_[static_cast<std::size_t>(round_cursor_)];
      if (sh.calendar.next_time() <= round_window_) {
        EventCalendar::Popped event;
        sh.calendar.pop(&event);
        now_ = std::max(now_, event.time);
        ++committed_processed_;
        ++sh.processed;
        execute(sh, round_cursor_, &event);
        return true;
      }
      ++round_cursor_;
    }
    round_active_ = false;
  }
}

std::uint64_t Engine::run_sequential(Time until) {
  std::uint64_t count = 0;
  while (advance_one(until, /*honor_stop=*/true)) ++count;
  return count;
}

// --- sharded parallel path (threads > 1) ----------------------------------

void Engine::ensure_workers() {
  if (!workers_.empty()) return;
  const int n = std::min(config_.threads, config_.shards);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int w = 0; w < n; ++w) {
    workers_.emplace_back([this, w, n] { worker_loop(w, n); });
  }
}

void Engine::worker_loop(int worker, int stride) {
  std::uint64_t seen_generation = 0;
  while (true) {
    Time window = 0.0;
    {
      std::unique_lock lock(pool_mutex_);
      round_cv_.wait(lock, [&] {
        return pool_shutdown_ || round_generation_ != seen_generation;
      });
      if (pool_shutdown_) return;
      seen_generation = round_generation_;
      window = pool_window_;
    }
    for (int s = worker; s < config_.shards; s += stride) {
      drain_shard(s, window);
    }
    {
      std::lock_guard lock(pool_mutex_);
      ++workers_done_;
    }
    done_cv_.notify_one();
  }
}

void Engine::drain_shard(ShardId shard_id, Time window_end) {
  Shard& sh = shards_[static_cast<std::size_t>(shard_id)];
  while (sh.calendar.next_time() <= window_end) {
    EventCalendar::Popped event;
    sh.calendar.pop(&event);
    ++sh.round_processed;
    execute(sh, shard_id, &event);
  }
}

std::uint64_t Engine::run_parallel(Time until) {
  // A sequential round left open by step() finishes on the caller before
  // the pool takes over — rounds never split across execution modes.
  std::uint64_t count = 0;
  while (round_active_) {
    if (!advance_one(until, /*honor_stop=*/true)) return count;
    ++count;
  }
  ensure_workers();
  const int n = static_cast<int>(workers_.size());
  while (!stop_requested_.load(std::memory_order_relaxed)) {
    deliver_sends();
    const Time t = min_next_time();
    if (t == kInfiniteTime) break;
    if (t > until) {
      now_ = until;
      break;
    }
    Time window = config_.lookahead > 0.0 ? t + config_.lookahead : t;
    window = std::min(window, until);
    watermark_ = window;
    {
      std::unique_lock lock(pool_mutex_);
      pool_window_ = window;
      ++round_generation_;
      workers_done_ = 0;
      round_cv_.notify_all();
      done_cv_.wait(lock, [&] { return workers_done_ == n; });
    }
    for (Shard& sh : shards_) {
      count += sh.round_processed;
      committed_processed_ += sh.round_processed;
      sh.processed += sh.round_processed;
      sh.round_processed = 0;
      now_ = std::max(now_, sh.local_now);
    }
  }
  return count;
}

std::uint64_t Engine::run(Time until) {
  stop_requested_.store(false, std::memory_order_relaxed);
  if (config_.shards == 1) return run_single(until);
  if (config_.threads == 1) return run_sequential(until);
  return run_parallel(until);
}

}  // namespace flotilla::sim
