#include "journal/recovery.hpp"

#include <utility>

#include "util/error.hpp"

namespace flotilla::journal {

std::size_t StateImage::tasks_in_flight() const {
  std::size_t n = 0;
  for (const auto& [id, task] : tasks) {
    (void)id;
    if (task.terminal_edges == 0) ++n;
  }
  return n;
}

RecoveryManager::RecoveryManager(std::string_view bytes) {
  ReadResult parsed = read(bytes);
  if (parsed.corrupt) {
    util::raise("journal: corrupt record #", parsed.corrupt_index, ": ",
                parsed.error);
  }
  if (parsed.records.empty()) {
    util::raise("journal: no intact records to recover from");
  }
  if (parsed.records.front().type != RecordType::kHeader) {
    util::raise("journal: first record is not a header");
  }
  prefix_ = std::move(parsed.records);
  seed_ = prefix_.front().seed;
  spec_ = prefix_.front().text;
  truncated_ = parsed.truncated;
  truncated_bytes_ = parsed.truncated_bytes;
}

StateImage RecoveryManager::image() const {
  StateImage image;
  for (const Record& r : prefix_) {
    switch (r.type) {
      case RecordType::kHeader:
        break;
      case RecordType::kReady:
        image.ready = true;
        image.ready_time = r.time;
        break;
      case RecordType::kTransition: {
        auto& task = image.tasks[r.edge.task];
        task.from = std::exchange(task.state, r.edge.to);
        task.backend = r.backend;
        task.attempt = r.edge.attempt;
        if (core::is_final(r.edge.to)) ++task.terminal_edges;
        break;
      }
      case RecordType::kAlloc:
        image.core_delta[r.alloc.node] += r.alloc.cores;
        image.gpu_delta[r.alloc.node] += r.alloc.gpus;
        break;
      case RecordType::kFault:
        ++image.faults;
        break;
      case RecordType::kEnd:
        image.ended = true;
        break;
    }
    if (r.type != RecordType::kHeader) image.last_time = r.time;
  }
  return image;
}

}  // namespace flotilla::journal
