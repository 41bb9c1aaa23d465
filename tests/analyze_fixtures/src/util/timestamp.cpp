// Fixture: scope. src/util/ is not simulation code (host tools use it
// too), so the host clock below is never a determinism finding.
#include <ctime>

namespace fixture {

long log_timestamp() { return ::time(nullptr); }

}  // namespace fixture
