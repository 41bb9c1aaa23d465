// Fixture: ingress scope. The arrival processes drive simulated offers, so
// src/ingress/ is simulation code and a host clock there must be flagged.
#include <chrono>

namespace fixture {

double next_offer_at(double mean_gap) {
  const auto now = std::chrono::system_clock::now();
  return std::chrono::duration<double>(now.time_since_epoch()).count() +
         mean_gap;
}

}  // namespace fixture
