// Fixture: dragon scope. The simulated backend is simulation scope; the
// clock below must be flagged by a directory scan.
#include <chrono>

namespace fixture {

double backend_dispatch_stamp() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace fixture
