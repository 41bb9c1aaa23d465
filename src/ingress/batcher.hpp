// Intake batcher: flux-core job-ingest-style transaction batching.
//
// flux-core's job-ingest module validates submissions as they arrive but
// commits them to the KVS in *batches*: the first job in an empty batch
// arms a flush timer, subsequent jobs pile on, and the batch commits as
// one KVS transaction when the timer fires or the batch fills — one
// commit cost amortized over the whole batch. This class reproduces that
// protocol in virtual time: admitted task descriptions accumulate, and a
// flush hands the whole batch to one TaskManager::submit_batch call,
// whose calibrated cost is `tmgr_batch_base + n * tmgr_batch_per_task`
// instead of n times the serial `tmgr_task_cost`.
//
// Timer events are engine events, so flush order is deterministic. The
// batch buffer is kept across flushes: a warm batcher allocates nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/task.hpp"
#include "sim/engine.hpp"

namespace flotilla::ingress {

struct BatcherConfig {
  double window = 2e-3;        // s: flush timer armed by the first add
  std::size_t max_batch = 64;  // flush immediately at this size
};

class IntakeBatcher {
 public:
  // Receives the batch in add order; may move from its descriptions.
  using Flush = std::function<void(std::span<core::TaskDescription>)>;

  IntakeBatcher(sim::Engine& engine, BatcherConfig config, Flush flush);

  // Adds one admitted description; may flush synchronously when the batch
  // fills. The batcher must outlive any armed flush timer (the owning
  // IngressService guarantees this).
  void add(const core::TaskDescription& description);

  // Flushes whatever is pending, invalidating any armed timer.
  void flush_now();

  std::size_t pending() const { return pending_.size(); }
  std::uint64_t batches() const { return batches_; }
  std::uint64_t batched_tasks() const { return batched_tasks_; }
  std::size_t max_batch_seen() const { return max_batch_seen_; }

 private:
  sim::Engine& engine_;
  BatcherConfig config_;
  Flush flush_;
  std::vector<core::TaskDescription> pending_;
  // Bumped on every flush so a stale timer (armed for a batch that
  // already flushed on size) becomes a no-op instead of double-flushing.
  std::uint64_t generation_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t batched_tasks_ = 0;
  std::size_t max_batch_seen_ = 0;
};

}  // namespace flotilla::ingress
