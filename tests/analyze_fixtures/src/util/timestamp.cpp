// Fixture: scope. src/util/ is not simulation code (the real-threaded
// layers use it), so the host clock below is never a determinism finding.
#include <ctime>

namespace fixture {

long log_timestamp() { return ::time(nullptr); }

}  // namespace fixture
