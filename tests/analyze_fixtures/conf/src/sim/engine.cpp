#include "sim/engine.hpp"

namespace sim {

void Engine::in(double delay, Callback fn) {
  (void)delay;
  next_ = std::move(fn);
}

void Engine::at(int shard, double when, Callback fn) {
  (void)shard;
  (void)when;
  next_ = std::move(fn);
}

void Engine::run() {
  while (next_) {
    ticks_ += 1;
    Callback fn = std::move(next_);
    next_ = nullptr;
    fn();
  }
}

}  // namespace sim
