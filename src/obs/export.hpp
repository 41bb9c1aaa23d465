// Trace exporters (docs/observability.md).
//
//  - write_chrome_trace: Chrome trace_event JSON. Spans become complete
//    ("X") events paired begin/end per (type, component, entity); lanes
//    (tids) are assigned in first-seen order so the file is deterministic.
//    Loads in Perfetto (ui.perfetto.dev) and chrome://tracing.
//  - write_prof: RP-profiler-style flat CSV, one record per line, for
//    RADICAL-Analytics-style notebook post-processing. Fixed-precision
//    formatting: same seed => byte-identical file.
#pragma once

#include <iosfwd>

#include "obs/tracer.hpp"

namespace flotilla::obs {

void write_chrome_trace(const Tracer& tracer, std::ostream& os);
void write_prof(const Tracer& tracer, std::ostream& os);

}  // namespace flotilla::obs
