#include "sim/engine.hpp"

#include <cmath>

#include "util/error.hpp"

namespace flotilla::sim {

Engine::EventId Engine::at_reserved(EventKey key, Callback&& cb) {
  FLOT_CHECK(cb, "scheduling an empty callback");
  FLOT_CHECK(key.seq != 0 && key.seq < next_seq_,
             "seq ", key.seq, " was never reserved");
  FLOT_CHECK(!(key < last_key_), "reserved key at ", key.time,
             " precedes the running event");
  return calendar_.push(key.time, key.seq, std::move(cb));
}

Engine::EventId Engine::at(Time t, Callback&& cb) {
  FLOT_CHECK(cb, "scheduling an empty callback");
  FLOT_CHECK(std::isfinite(t), "scheduling at non-finite time ", t);
  if (t < now_) t = now_;
  return calendar_.push(t, next_seq_++, std::move(cb));
}

Engine::EventId Engine::in(Time delay, Callback&& cb) {
  return at(now_ + delay, std::move(cb));
}

bool Engine::step() {
  if (!calendar_.prune()) return false;
  fire_next();
  return true;
}

void Engine::fire_next() {
  EventCalendar::Popped event = calendar_.pop();
  now_ = event.time;
  last_key_ = EventKey{event.time, event.seq};
  ++processed_;
  event.callback();
  if (post_event_hook_) post_event_hook_();
  if (trace_probe_) trace_probe_(event.time, processed_);
}

std::uint64_t Engine::run(Time until) {
  stop_requested_ = false;
  std::uint64_t count = 0;
  while (!stop_requested_) {
    const Time t = calendar_.next_time();
    if (t == kInfiniteTime) break;
    if (t > until) {
      // The clock never runs backwards (run(until) below now is a no-op),
      // so key order stays processing order.
      if (until >= now_) {
        now_ = until;
        // Everything issued so far at or before `until` has fired.
        last_key_ = EventKey{until, next_seq_};
      }
      break;
    }
    fire_next();  // next_time() just pruned: the top is live
    ++count;
  }
  return count;
}

}  // namespace flotilla::sim
