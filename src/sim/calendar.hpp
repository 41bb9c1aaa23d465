// EventCalendar: the simulation's event set.
//
// A calendar is a (time, seq) min-heap over a slot slab. Each heap entry
// names the slab slot that holds its callback; a slot is recycled through
// a free list as soon as its event fires or is cancelled, so the slab is
// as large as the peak number of pending events, never as the history.
//
// Cancellation uses seq/slot tombstones. A handle is the (seq, slot) pair
// push() returned; cancel() frees the slot only while the slot still
// stores that seq. The heap entry stays behind as a tombstone and is
// dropped when it reaches the top, because its seq no longer matches its
// slot's. Sequence numbers are unique within a calendar, so a stale handle
// can never cancel (and a tombstone never fire) whatever event reuses the
// slot later.
//
// The sequence numbers that break ties at equal times are assigned by the
// owner (sim::Engine). The owner may issue a seq and push its event later
// (key reservation, see Engine::reserve_seq); only uniqueness is required
// of the seqs.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
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
  Handle push(Time time, std::uint64_t seq, Callback callback) {
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
    heap_.push(Entry{time, seq, slot});
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

  // Virtual time of the earliest live event, or kInfiniteTime. Prunes
  // tombstones off the heap top, which is why this is genuinely
  // non-const: peeking compacts, it never changes observable state.
  Time next_time() {
    pop_cancelled();
    return heap_.empty() ? kInfiniteTime : heap_.top().time;
  }

  // Removes and returns the earliest live event; false when empty.
  bool pop(Popped* out) {
    pop_cancelled();
    if (heap_.empty()) return false;
    const Entry entry = heap_.top();
    heap_.pop();
    out->time = entry.time;
    out->seq = entry.seq;
    out->callback = std::move(slots_[entry.slot].callback);
    release(entry.slot);
    return true;
  }

  bool empty() const { return live_ == 0; }
  std::size_t live() const { return live_; }

 private:
  struct Entry {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
    // Min-heap by (time, seq).
    friend bool operator>(const Entry& a, const Entry& b) {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  struct Slot {
    std::uint64_t seq = 0;  // 0 while the slot is free
    Callback callback;
  };

  void release(std::uint32_t slot) {
    slots_[slot].seq = 0;
    free_.push_back(slot);
    --live_;
  }

  void pop_cancelled() {
    while (!heap_.empty() &&
           slots_[heap_.top().slot].seq != heap_.top().seq) {
      heap_.pop();
    }
  }

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
};

}  // namespace flotilla::sim
