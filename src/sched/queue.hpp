// Shared task-queue policies for the backend schedulers.
//
// Every backend used to keep its own pending queue with subtly different
// ordering code: flux/instance.cpp's priority deque with backfill, the
// agent's strict-FIFO waitlist for externally scheduled backends, dragon's
// capacity queue. A QueuePolicy decides exactly two things — where a new
// entry is inserted, and how deep a scheduling pass may scan past a blocked
// head — so the queues themselves share one implementation and one set of
// tests (see docs/scheduling.md).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "obs/tracer.hpp"
#include "util/error.hpp"

namespace flotilla::sched {

// One queued unit of work: the owner's handle for it (a flux::Instance or
// dragon::Runtime job slot, the agent's TaskId) and the priority policies
// order by. The owner keeps the unit itself, by value, and reads its
// demand and gang from there.
struct QueueEntry {
  std::uint32_t slot = 0;
  int priority = 16;  // Flux urgency scale: 0..31, higher first
};

class QueuePolicy {
 public:
  virtual ~QueuePolicy() = default;

  virtual const char* name() const = 0;

  // Index at which `entry` enters `entries` (0 = head, size() = tail).
  virtual std::size_t insertion_index(const std::deque<QueueEntry>& entries,
                                      const QueueEntry& entry) const = 0;

  // How many entries from the head one scheduling pass may consider before
  // giving up. 1 means strict head-of-line blocking: an entry that does
  // not fit blocks everything behind it until resources free up.
  virtual std::size_t scan_limit(std::size_t queue_size) const = 0;
};

// Strict FIFO: arrival order, head-only scheduling. The agent's waitlist
// for externally scheduled backends (PRRTE DVM) and dragon's capacity
// queue both use this by default.
class FifoPolicy : public QueuePolicy {
 public:
  const char* name() const override { return "fifo"; }
  std::size_t insertion_index(const std::deque<QueueEntry>& entries,
                              const QueueEntry& entry) const override;
  std::size_t scan_limit(std::size_t queue_size) const override;
};

// Non-increasing priority with FIFO tie-break (Flux urgency semantics):
// an entry enters after every queued entry of equal or higher priority.
// Scheduling remains head-only.
class PriorityFifoPolicy : public QueuePolicy {
 public:
  const char* name() const override { return "priority-fifo"; }
  std::size_t insertion_index(const std::deque<QueueEntry>& entries,
                              const QueueEntry& entry) const override;
  std::size_t scan_limit(std::size_t queue_size) const override;
};

// Priority order plus bounded-depth backfill: a scheduling pass may skip
// up to `depth` blocked entries looking for one that fits — Flux's
// FCFS-with-backfill scheduler (flux::Instance::backfill_depth writes
// through to this policy each pass).
class BackfillPolicy : public PriorityFifoPolicy {
 public:
  explicit BackfillPolicy(int depth) { set_depth(depth); }

  const char* name() const override { return "backfill"; }
  std::size_t scan_limit(std::size_t queue_size) const override;

  void set_depth(int depth) {
    FLOT_CHECK(depth >= 1, "backfill depth must be >= 1, got ", depth);
    depth_ = depth;
  }
  int depth() const { return depth_; }

 private:
  int depth_ = 1;
};

// A policy-ordered queue of entries. Deques keep iteration deterministic
// (the determinism rules forbid unordered iteration on scheduling paths).
class TaskQueue {
 public:
  // The uid a trace span names for the unit in `slot`. It returns the uid
  // by value, so an owner that formats it on demand hands back no view
  // into a temporary.
  using EntityOf = std::function<std::string(std::uint32_t slot)>;

  explicit TaskQueue(std::unique_ptr<QueuePolicy> policy)
      : policy_(std::move(policy)) {
    FLOT_CHECK(policy_ != nullptr, "task queue needs a policy");
  }

  void push(QueueEntry entry) {
    const auto pos = policy_->insertion_index(entries_, entry);
    FLOT_CHECK(pos <= entries_.size(), "insertion index out of range");
    if (trace_) {
      trace_.begin(obs::SpanType::kTaskQueueWait, trace_component_,
                   entity_of_(entry.slot), entry.priority);
    }
    entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(pos),
                    std::move(entry));
  }

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

  // Entries one scheduling pass may consider, from the head.
  std::size_t scan_limit() const {
    return std::min(entries_.size(), policy_->scan_limit(entries_.size()));
  }

  const QueueEntry& at(std::size_t i) const { return entries_.at(i); }

  QueueEntry take(std::size_t i) {
    QueueEntry entry = std::move(entries_.at(i));
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
    trace_end(entry, static_cast<double>(entries_.size()));
    return entry;
  }

  QueueEntry pop_front() { return take(0); }

  // Removes the entry for `slot`; returns whether it was queued.
  bool remove(std::uint32_t slot) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].slot != slot) continue;
      take(i);
      return true;
    }
    return false;
  }

  template <typename Pred>
  void remove_if(Pred pred) {
    if (trace_) {
      for (const auto& entry : entries_) {
        if (pred(entry)) trace_end(entry);
      }
    }
    entries_.erase(
        std::remove_if(entries_.begin(), entries_.end(), std::move(pred)),
        entries_.end());
  }

  // Empties the queue, returning the entries in queue order.
  std::deque<QueueEntry> drain() {
    for (const auto& entry : entries_) trace_end(entry);
    return std::exchange(entries_, {});
  }

  const std::deque<QueueEntry>& entries() const { return entries_; }

  QueuePolicy& policy() { return *policy_; }
  const QueuePolicy& policy() const { return *policy_; }

  void set_policy(std::unique_ptr<QueuePolicy> policy) {
    FLOT_CHECK(policy != nullptr, "task queue needs a policy");
    policy_ = std::move(policy);
  }

  // Attaches structured tracing: each entry's time in the queue becomes a
  // kTaskQueueWait span under `component`, named by `entity_of` (push
  // opens, take/remove/drain close) — the scheduler-wait slice of the
  // Fig 7 breakdown.
  void set_trace(obs::TraceHandle handle, std::string component,
                 EntityOf entity_of) {
    trace_ = handle;
    trace_component_ = std::move(component);
    entity_of_ = std::move(entity_of);
  }

 private:
  void trace_end(const QueueEntry& entry, double value = 0.0) const {
    if (trace_) {
      trace_.end(obs::SpanType::kTaskQueueWait, trace_component_,
                 entity_of_(entry.slot), value);
    }
  }

  std::unique_ptr<QueuePolicy> policy_;
  std::deque<QueueEntry> entries_;
  obs::TraceHandle trace_;
  std::string trace_component_;
  EntityOf entity_of_;
};

}  // namespace flotilla::sched
