// Fixture: determinism violation in simulation scope — the determinism
// rules fire from the analyze pass registry.
#include <chrono>

namespace fixture {

long stamp() {
  return std::chrono::system_clock::now().time_since_epoch().count();
}

}  // namespace fixture
