// EventCalendar: the simulation's event set.
//
// A calendar is a (time, seq) binary min-heap over a slot slab. Each heap
// entry names the slab slot that holds its callback; a slot is recycled
// through a free list as soon as its event fires or is cancelled, so the
// slab is as large as the peak number of pending events, never as the
// history.
//
// Order key. An entry precedes another when
//   (a.time < b.time) | ((a.time == b.time) & (a.seq < b.seq)),
// evaluated without short-circuit branches. Times compare as doubles, so
// -0.0 and +0.0 are the same time and their events tie-break by seq; an
// event fires with the time bits it was pushed at. Sequence numbers are
// unique within a calendar, so no two entries ever compare equal: the pop
// order is fully determined by the keys, whatever the heap's layout.
//
// Cancellation uses seq/slot tombstones. A handle is the (seq, slot) pair
// push() returned; cancel() frees the slot only while the slot still
// stores that seq. The heap entry stays behind as a tombstone and is
// dropped when it reaches the top, because its seq no longer matches its
// slot's. Sequence numbers are unique within a calendar, so a stale handle
// can never cancel (and a tombstone never fire) whatever event reuses the
// slot later.
//
// Closure moves. push() moves the callback into its slot and pop() moves
// it out to the caller, who runs it there: a scheduled closure is
// relocated exactly twice between push and call, and destroyed once.
//
// The sequence numbers that break ties at equal times are assigned by the
// owner (sim::Engine). The owner may issue a seq and push its event later
// (key reservation, see Engine::reserve_seq); only uniqueness is required
// of the seqs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/callback.hpp"

namespace flotilla::sim {

using Time = double;  // virtual seconds

inline constexpr Time kInfiniteTime = std::numeric_limits<Time>::infinity();

class EventCalendar {
 public:
  // Identifies one pushed event for cancel().
  struct Handle {
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    friend bool operator==(Handle, Handle) = default;
  };

  struct Popped {
    Time time = 0.0;
    std::uint64_t seq = 0;
    Callback callback;
  };

  // Inserts an event; `seq` must be non-zero and unique within this
  // calendar. Pushes need not come in seq order: the heap orders by
  // (time, seq), so an event pushed late at a seq its owner reserved
  // earlier (Engine::at_reserved) pops exactly where it would have popped
  // had it been pushed when the seq was issued.
  Handle push(Time time, std::uint64_t seq, Callback&& callback) {
    std::uint32_t slot = 0;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    slots_[slot].seq = seq;
    slots_[slot].callback = std::move(callback);
    heap_.emplace_back();
    sift_up(heap_.size() - 1, Entry{time, seq, slot});
    ++live_;
    return Handle{seq, slot};
  }

  // Tombstones a pending event; returns false if the handle's event
  // already fired or was cancelled.
  bool cancel(Handle handle) {
    if (handle.seq == 0 || handle.slot >= slots_.size()) return false;
    Slot& slot = slots_[handle.slot];
    if (slot.seq != handle.seq) return false;
    slot.callback = Callback{};
    release(handle.slot);
    return true;
  }

  // Drops tombstones off the heap top; false when no live event is left.
  // Genuinely non-const: pruning compacts the heap, it never changes
  // observable state.
  bool prune() {
    while (!heap_.empty() && slots_[heap_[0].slot].seq != heap_[0].seq) {
      pop_top();
    }
    return !heap_.empty();
  }

  // Virtual time of the earliest live event, or kInfiniteTime. Prunes.
  Time next_time() { return prune() ? heap_[0].time : kInfiniteTime; }

  // Removes and returns the earliest live event. Precondition: prune()
  // returned true, or next_time() a finite time, with no push, cancel or
  // pop since, so the top is live without a second pruning pass.
  Popped pop() {
    const Entry top = heap_[0];
    pop_top();
    Popped out{top.time, top.seq, std::move(slots_[top.slot].callback)};
    release(top.slot);
    return out;
  }

  bool empty() const { return live_ == 0; }
  std::size_t live() const { return live_; }

 private:
  struct Entry {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  // The (time, seq) order, as bitwise ops on the comparisons so that the
  // compiler emits flag arithmetic instead of unpredictable branches.
  static bool before(const Entry& a, const Entry& b) {
    return (a.time < b.time) | ((a.time == b.time) & (a.seq < b.seq));
  }

  struct Slot {
    std::uint64_t seq = 0;  // 0 while the slot is free
    Callback callback;
  };

  void release(std::uint32_t slot) {
    slots_[slot].seq = 0;
    free_.push_back(slot);
    --live_;
  }

  // Moves `entry` from the hole at `hole` toward the root until its parent
  // precedes it.
  void sift_up(std::size_t hole, const Entry& entry) {
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!before(entry, heap_[parent])) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = entry;
  }

  // Removes the root: the hole sinks to a leaf along the smaller children
  // (picked by adding the comparison to the index, not by a branch), and
  // the last entry sifts up from there. Events are mostly pushed later
  // than the pending ones, so the last entry rarely climbs far.
  void pop_top() {
    const Entry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return;
    std::size_t hole = 0;
    std::size_t child = 1;
    while (child + 1 < n) {
      child += static_cast<std::size_t>(before(heap_[child + 1], heap_[child]));
      heap_[hole] = heap_[child];
      hole = child;
      child = 2 * hole + 1;
    }
    if (child < n) {
      heap_[hole] = heap_[child];
      hole = child;
    }
    sift_up(hole, last);
  }

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
};

}  // namespace flotilla::sim
