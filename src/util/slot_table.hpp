// Records held by value at stable slots: fixed chunks that never move, so
// a T& stays valid while its slot is claimed and a closure can carry the
// 4-byte slot instead of a shared pointer. A released slot is reset (its
// heap members freed) and reused, the last released first, so the table
// grows to the peak number of records held at once. Once every record is
// released the table returns all but its first chunk: a drained backlog
// does not keep its peak.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace flotilla::util {

template <typename T, std::size_t kChunk = 256>
class SlotTable {
 public:
  std::uint32_t claim(T value) {
    std::uint32_t slot = size_;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      FLOT_CHECK(size_ < UINT32_MAX, "slot table full");
      if (size_++ / kChunk == chunks_.size()) {
        chunks_.push_back(std::make_unique<T[]>(kChunk));
      }
    }
    (*this)[slot] = std::move(value);
    return slot;
  }

  void release(std::uint32_t slot) {
    (*this)[slot] = T{};
    free_.push_back(slot);
    if (free_.size() < size_) return;
    size_ = 0;
    free_.clear();
    if (chunks_.size() > 1) {
      chunks_.resize(1);
      free_.shrink_to_fit();
    }
  }

  T& operator[](std::uint32_t slot) {
    return chunks_[slot / kChunk][slot % kChunk];
  }

  // The slots whose records satisfy `pred`, in ascending `key` order (a
  // free slot holds a default T).
  template <typename Pred, typename Key>
  std::vector<std::uint32_t> sorted_slots(Pred pred, Key key) {
    std::vector<std::uint32_t> slots;
    for (std::uint32_t slot = 0; slot < size_; ++slot) {
      if (pred((*this)[slot])) slots.push_back(slot);
    }
    std::sort(slots.begin(), slots.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return key((*this)[a]) < key((*this)[b]);
              });
    return slots;
  }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::uint32_t size_ = 0;
};

}  // namespace flotilla::util
