#include "sim/server.hpp"

#include <cmath>

#include "util/error.hpp"

namespace flotilla::sim {

Server::Server(Engine& engine, int parallelism)
    : engine_(engine), parallelism_(parallelism) {
  FLOT_CHECK(parallelism >= 1, "server parallelism must be >= 1, got ",
             parallelism);
}

void Server::submit(Time service_time, Done&& done) {
  FLOT_CHECK(std::isfinite(service_time) && service_time >= 0.0,
             "service time must be finite and non-negative, got ",
             service_time);
  if (held_ != kNoSlot) settle();
  if (busy_ < parallelism_ && backlog() == 0) {
    start(service_time, std::move(done));
    return;
  }
  if (!waiting_) waiting_ = std::make_unique<std::deque<Item>>();
  waiting_->emplace_back(service_time, std::move(done));
  start_next();
}

std::uint32_t Server::claim_slot() {
  std::uint32_t slot = free_head_;
  if (slot != kNoSlot) {
    free_head_ = slots_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  ++busy_;
  return slot;
}

void Server::start(Time service_time, Done&& done) {
  const std::uint32_t slot = claim_slot();
  Item& item = slots_[slot].item;
  item.service_time = service_time;
  item.done = std::move(done);
  engine_.in(service_time, [this, slot] { finish(slot); });
}

void Server::start_next() {
  while (busy_ < parallelism_ && backlog() != 0) {
    Item& head = waiting_->front();
    start(head.service_time, std::move(head.done));
    waiting_->pop_front();
  }
}

Server::Done Server::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  Done done = std::move(s.item.done);
  busy_accum_ += s.item.service_time;
  s.next_free = free_head_;
  free_head_ = slot;
  --busy_;
  ++completed_;
  return done;
}

void Server::finish(std::uint32_t slot) {
  Done done = release(slot);
  if (done) done();
  start_next();
}

std::uint32_t Server::hold(Time service_time) {
  if (held_ != kNoSlot) settle();
  if (busy_ != 0 || backlog() != 0) return kNoSlot;
  const std::uint32_t slot = claim_slot();
  Slot& s = slots_[slot];
  s.item.service_time = service_time;
  // The key Server::start's engine_.in(service_time, ...) would push at.
  s.key = Engine::EventKey{engine_.now() + service_time,
                           engine_.reserve_seq()};
  held_ = slot;
  return slot;
}

void Server::carry(std::uint32_t slot, Done&& done) {
  slots_[slot].item.done = std::move(done);
  if (held_ == slot) materialize();
}

void Server::settle() {
  if (hold_passed()) {
    release(held_);  // a hold has no `done` and no waiters behind it
    held_ = kNoSlot;
  } else {
    materialize();
  }
}

void Server::materialize() {
  const std::uint32_t slot = held_;
  held_ = kNoSlot;
  engine_.at_reserved(slots_[slot].key, [this, slot] { finish(slot); });
}

// ------------------------------------------------------------------ FanOut

void FanOut::add(Server& server, Time service_time) {
  FLOT_CHECK(std::isfinite(service_time) && service_time >= 0.0,
             "service time must be finite and non-negative, got ",
             service_time);
  targets_.push_back(Target{&server, service_time, Server::kNoSlot});
}

void FanOut::launch(Server::Done&& done) {
  FLOT_CHECK(!targets_.empty(), "fan-out launched without targets");
  if (targets_.size() == 1) {
    targets_.front().server->submit(targets_.front().service_time,
                                    std::move(done));
    targets_.clear();
    return;
  }
  struct Countdown {
    int remaining = 0;
    Server::Done done;
  };
  std::shared_ptr<Countdown> countdown;
  const auto tick = [&countdown] {
    ++countdown->remaining;
    return [countdown] {
      if (--countdown->remaining == 0) countdown->done();
    };
  };
  const Target* carrier = nullptr;
  for (Target& target : targets_) {
    target.slot = target.server->hold(target.service_time);
    if (target.slot != Server::kNoSlot) {
      if (carrier == nullptr ||
          carrier->server->slots_[carrier->slot].key <
              target.server->slots_[target.slot].key) {
        carrier = &target;
      }
      continue;
    }
    if (!countdown) {
      countdown = std::make_shared<Countdown>();
      countdown->done = std::move(done);
    }
    target.server->submit(target.service_time, tick());
  }
  if (carrier != nullptr) {
    if (countdown) {
      carrier->server->carry(carrier->slot, tick());
    } else {
      carrier->server->carry(carrier->slot, std::move(done));
    }
  }
  targets_.clear();
}

}  // namespace flotilla::sim
