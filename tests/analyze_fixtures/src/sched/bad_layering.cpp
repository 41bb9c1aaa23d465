// Fixture: architecture violation. sched sits below core in the declared
// DAG (layers.conf), so this include must be reported as arch-layering.
#include "core/cycle_a.hpp"
#include "util/helpers.hpp"

namespace fixture {

int schedule_width() { return clamp01(1); }

}  // namespace fixture
