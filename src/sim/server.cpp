#include "sim/server.hpp"

#include "util/error.hpp"

namespace flotilla::sim {

Server::Server(Engine& engine, int parallelism)
    : engine_(engine), parallelism_(parallelism) {
  FLOT_CHECK(parallelism >= 1, "server parallelism must be >= 1, got ",
             parallelism);
}

void Server::submit(Time service_time, Done done) {
  FLOT_CHECK(service_time >= 0.0, "negative service time ", service_time);
  queue_.push_back(Item{service_time, std::move(done)});
  start_next();
}

void Server::start_next() {
  while (busy_ < parallelism_ && !queue_.empty()) {
    Item item = std::move(queue_.front());
    queue_.pop_front();
    ++busy_;
    busy_accum_ += item.service_time;
    engine_.in(item.service_time,
               [this, done = std::move(item.done)]() mutable {
                 finish(std::move(done));
               });
  }
}

void Server::finish(Done done) {
  --busy_;
  ++completed_;
  if (done) done();
  start_next();
}

Time Server::busy_time() const { return busy_accum_; }

}  // namespace flotilla::sim
