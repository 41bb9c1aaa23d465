// Fixture: scope. src/util/ is simulation code like the rest of src/, so
// the host clock below is a determinism finding where it is read.
#include <ctime>

namespace fixture {

long log_timestamp() { return ::time(nullptr); }

}  // namespace fixture
