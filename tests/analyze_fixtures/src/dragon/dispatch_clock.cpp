// Fixture: dragon scope. Every file under src/dragon/ is simulation
// scope, not only *_backend.* and runtime.*: the clock below must be
// flagged, whether scanned as a tree or named alone.
#include <chrono>

namespace fixture {

double dispatch_heartbeat() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace fixture
