#include "sched/queue.hpp"

#include <algorithm>

namespace flotilla::sched {

std::size_t FifoPolicy::insertion_index(const std::deque<QueueEntry>& entries,
                                        const QueueEntry& entry) const {
  (void)entry;
  return entries.size();
}

std::size_t FifoPolicy::scan_limit(std::size_t queue_size) const {
  (void)queue_size;
  return 1;
}

std::size_t PriorityFifoPolicy::insertion_index(
    const std::deque<QueueEntry>& entries, const QueueEntry& entry) const {
  // The queue is kept sorted by non-increasing priority, so the insertion
  // point is a binary search — O(log n) even with paper-scale backlogs of
  // 200k+ jobs. upper_bound places equal priorities after their elders
  // (the FIFO tie-break). An arrival at or below the tail's priority — the
  // common case, since most jobs share the default urgency — goes to the
  // tail without a search.
  if (entries.empty() || entries.back().priority >= entry.priority) {
    return entries.size();
  }
  const auto pos = std::upper_bound(
      entries.begin(), entries.end(), entry.priority,
      [](int priority, const QueueEntry& queued) {
        return queued.priority < priority;
      });
  return static_cast<std::size_t>(pos - entries.begin());
}

std::size_t PriorityFifoPolicy::scan_limit(std::size_t queue_size) const {
  (void)queue_size;
  return 1;
}

std::size_t BackfillPolicy::scan_limit(std::size_t queue_size) const {
  return std::min(queue_size, static_cast<std::size_t>(depth_));
}

}  // namespace flotilla::sched
