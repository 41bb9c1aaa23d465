// Fixture: dragon scope. Matches neither *_backend.* nor runtime.*, so it
// is the threaded execution layer, which may use real clocks: no
// determinism finding, whether scanned as a tree or named alone.
#include <chrono>

namespace fixture {

double worker_heartbeat() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace fixture
