// Fixture: wall-clock helper in the util layer. The determinism rules
// cover all of src/, util/ included, so the clock read is reported here,
// at its source, before any caller in simulation code can feed its value
// into a trace span, counter or fingerprint.
#pragma once

#include <chrono>

namespace fixture {

inline double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace fixture
