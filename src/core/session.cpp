#include "core/session.hpp"

namespace flotilla::core {

Session::Session(platform::PlatformSpec spec, int num_nodes,
                 std::uint64_t seed, platform::Calibration calibration)
    : cluster_(std::move(spec), num_nodes),
      calibration_(calibration),
      trace_(engine_),
      seed_(seed),
      uid_(ids_.next("session", 4)) {}

obs::Tracer& Session::enable_tracing(std::size_t capacity) {
  if (!tracer_) {
    tracer_ = std::make_unique<obs::Tracer>(engine_, capacity);
    // Event-loop progress sampled into the trace: one counter record
    // every 4096 processed events keeps the overhead negligible while
    // still giving Perfetto an events/s series to plot.
    engine_.set_trace_probe(
        [tracer = tracer_.get()](sim::Time, std::uint64_t processed) {
          if (processed % 4096 == 0) {
            tracer->counter("engine", "events_processed",
                            static_cast<double>(processed));
          }
        });
  }
  return *tracer_;
}

}  // namespace flotilla::core
