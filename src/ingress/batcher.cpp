#include "ingress/batcher.hpp"

#include <utility>

#include "util/error.hpp"

namespace flotilla::ingress {

IntakeBatcher::IntakeBatcher(sim::Engine& engine, BatcherConfig config,
                             Flush flush)
    : engine_(engine), config_(config), flush_(std::move(flush)) {
  FLOT_CHECK(config_.max_batch >= 1, "batcher max_batch must be >= 1");
  FLOT_CHECK(config_.window >= 0.0, "batcher window must be >= 0");
}

void IntakeBatcher::add(const core::TaskDescription& description) {
  pending_.push_back(description);
  if (pending_.size() >= config_.max_batch) {
    flush_now();
    return;
  }
  if (pending_.size() == 1) {
    engine_.in(config_.window, [this, gen = generation_] {
      if (gen == generation_) flush_now();
    });
  }
}

void IntakeBatcher::flush_now() {
  ++generation_;
  if (pending_.empty()) return;
  ++batches_;
  batched_tasks_ += pending_.size();
  if (pending_.size() > max_batch_seen_) max_batch_seen_ = pending_.size();
  flush_(pending_);
  pending_.clear();
}

}  // namespace flotilla::ingress
