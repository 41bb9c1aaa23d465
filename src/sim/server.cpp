#include "sim/server.hpp"

#include <cmath>

#include "util/error.hpp"

namespace flotilla::sim {

Server::Server(Engine& engine, int parallelism)
    : engine_(engine), parallelism_(parallelism) {
  FLOT_CHECK(parallelism >= 1, "server parallelism must be >= 1, got ",
             parallelism);
}

void Server::submit(Time service_time, Done done) {
  FLOT_CHECK(std::isfinite(service_time) && service_time >= 0.0,
             "service time must be finite and non-negative, got ",
             service_time);
  Item item{service_time, std::move(done)};
  if (busy_ < parallelism_ && backlog() == 0) {
    start(std::move(item));
    return;
  }
  if (!waiting_) waiting_ = std::make_unique<std::deque<Item>>();
  waiting_->push_back(std::move(item));
  start_next();
}

void Server::start(Item item) {
  std::uint32_t slot = free_head_;
  if (slot != kNoSlot) {
    free_head_ = slots_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  const Time service_time = item.service_time;
  slots_[slot].item = std::move(item);
  ++busy_;
  engine_.in(service_time, [this, slot] { finish(slot); });
}

void Server::start_next() {
  while (busy_ < parallelism_ && backlog() != 0) {
    start(std::move(waiting_->front()));
    waiting_->pop_front();
  }
}

void Server::finish(std::uint32_t slot) {
  Slot& s = slots_[slot];
  Done done = std::move(s.item.done);
  busy_accum_ += s.item.service_time;
  s.next_free = free_head_;
  free_head_ = slot;
  --busy_;
  ++completed_;
  if (done) done();
  start_next();
}

}  // namespace flotilla::sim
