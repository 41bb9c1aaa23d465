// OfferWindow: the ingress's per-offer state, indexed by TaskId.
//
// A committed batch's tasks have consecutive TaskIds, and tasks reach a
// final state roughly in id order, so the live offers form a narrow id
// span. The window holds that span in a ring indexed by `id - base`: a
// lookup is one subtraction, and the front is trimmed as soon as its
// offer goes final. Ids between two batches that the ingress did not
// admit (tasks submitted straight to the same TaskManager) are gap
// entries, so the state is O(live span), not O(history). The ring grows
// by doubling and is reused, so a warm window allocates nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/task.hpp"
#include "util/error.hpp"

namespace flotilla::ingress {

class OfferWindow {
 public:
  struct Offer {
    double time = 0.0;          // virtual time of the accepted offer
    std::uint64_t request = 0;  // <n> of the span entity "req-<n>"
    int client = 0;
    bool live = false;             // admitted, not final; false in a gap
    bool awaiting_launch = false;  // submit->launch not yet recorded
  };

  // Files `offer` as task `id`'s, after gap entries for any ids skipped
  // since the last one. Ids must increase.
  void push(core::TaskId id, const Offer& offer) {
    if (count_ == 0) base_ = id;
    FLOT_CHECK(id >= base_ + count_, "ingress: task id ", id,
               " does not follow the window's last id ",
               base_ + count_ - 1);
    while (base_ + count_ < id) append(Offer{});
    append(offer).live = true;
  }

  // Task `id`'s live offer, or null for a task the ingress did not admit
  // or that is already final (an id below base_ wraps past count_).
  Offer* find(core::TaskId id) {
    const std::size_t offset = static_cast<core::TaskId>(id - base_);
    if (offset >= count_) return nullptr;
    Offer& offer = ring_[(head_ + offset) & (ring_.size() - 1)];
    return offer.live ? &offer : nullptr;
  }

  // Retires a live offer (its task went final) and trims the front past
  // every retired or gap entry.
  void retire(Offer& offer) {
    offer.live = false;
    while (count_ != 0 && !ring_[head_].live) {
      head_ = (head_ + 1) & (ring_.size() - 1);
      --count_;
      ++base_;
    }
  }

  // Entries held: the live offers and the gaps between them.
  std::size_t size() const { return count_; }

 private:
  Offer& append(const Offer& offer) {
    if (count_ == ring_.size()) grow();
    Offer& slot = ring_[(head_ + count_) & (ring_.size() - 1)];
    slot = offer;
    ++count_;
    return slot;
  }

  void grow() {
    std::vector<Offer> ring(ring_.empty() ? 64 : 2 * ring_.size());
    for (std::size_t i = 0; i < count_; ++i) {
      ring[i] = ring_[(head_ + i) & (ring_.size() - 1)];
    }
    ring_.swap(ring);
    head_ = 0;
  }

  std::vector<Offer> ring_;  // power-of-two size
  std::size_t head_ = 0;     // ring index of base_
  std::size_t count_ = 0;
  core::TaskId base_ = 0;    // TaskId of the front entry
};

}  // namespace flotilla::ingress
