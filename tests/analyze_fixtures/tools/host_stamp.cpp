// Fixture: scope. tools/ is host tooling outside the simulation, so the
// host clock below is never a determinism finding.
#include <ctime>

namespace fixture {

long run_started_at() { return ::time(nullptr); }

}  // namespace fixture
