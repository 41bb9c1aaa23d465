// Miniature engine for the confinement fixtures: just enough surface for
// the dispatch model — in/at overloads taking a work lambda, and a run
// loop that invokes scheduled callbacks (so the shared-state audit's
// callback hub fires).
#pragma once

#include <functional>
#include <utility>

namespace sim {

using Callback = std::function<void()>;

class Engine {
 public:
  void in(double delay, Callback fn);
  void at(int shard, double when, Callback fn);
  void run();

 private:
  Callback next_;
  long ticks_ = 0;
};

}  // namespace sim
