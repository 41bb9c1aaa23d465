#include "platform/node.hpp"

#include <bit>

#include "platform/cluster.hpp"
#include "util/error.hpp"

namespace flotilla::platform {

namespace {

// Lowest `n` set bits of `mask`, which has `count` set bits (count >= n).
// Works from the shorter end: at most min(n, count - n) iterations, so a
// whole-node claim (n == count) returns the mask as it is.
std::uint64_t take_lowest(std::uint64_t mask, int n, int count) {
  if (2 * n >= count) {
    for (int i = n; i < count; ++i) mask ^= std::bit_floor(mask);  // highest
    return mask;
  }
  std::uint64_t taken = 0;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t bit = mask & (~mask + 1);  // lowest set bit
    taken |= bit;
    mask ^= bit;
  }
  return taken;
}

}  // namespace

int NodeSlice::cores() const { return std::popcount(core_mask); }
int NodeSlice::gpus() const {
  return std::popcount(static_cast<unsigned>(gpu_mask));
}

Node::Node(NodeId id, int cores, int gpus)
    : id_(id),
      total_cores_(cores),
      total_gpus_(gpus),
      free_cores_(cores),
      free_gpus_(gpus) {
  FLOT_CHECK(cores >= 1 && cores <= 64, "node cores out of range: ", cores);
  FLOT_CHECK(gpus >= 0 && gpus <= 8, "node gpus out of range: ", gpus);
  core_free_mask_ =
      cores == 64 ? ~0ULL : ((1ULL << cores) - 1);
  gpu_free_mask_ = static_cast<std::uint8_t>((1U << gpus) - 1);
}

std::optional<NodeSlice> Node::allocate(int cores, int gpus) {
  FLOT_CHECK(cores >= 0 && gpus >= 0, "negative demand");
  if (cores > free_cores_ || gpus > free_gpus_) return std::nullopt;
  NodeSlice slice;
  slice.node = id_;
  slice.core_mask = take_lowest(core_free_mask_, cores, free_cores_);
  slice.gpu_mask = static_cast<std::uint8_t>(
      take_lowest(gpu_free_mask_, gpus, free_gpus_));
  core_free_mask_ ^= slice.core_mask;
  gpu_free_mask_ = static_cast<std::uint8_t>(gpu_free_mask_ ^ slice.gpu_mask);
  free_cores_ -= cores;
  free_gpus_ -= gpus;
  notify_changed();
  return slice;
}

void Node::notify_changed() {
  if (owner_ != nullptr) owner_->notify_node_changed(id_);
}

void Node::release(const NodeSlice& slice) {
  FLOT_CHECK(slice.node == id_, "slice released on wrong node: slice.node=",
             slice.node, " node=", id_);
  FLOT_CHECK((core_free_mask_ & slice.core_mask) == 0,
             "double free of cores on node ", id_);
  FLOT_CHECK((gpu_free_mask_ & slice.gpu_mask) == 0,
             "double free of gpus on node ", id_);
  core_free_mask_ |= slice.core_mask;
  gpu_free_mask_ = static_cast<std::uint8_t>(gpu_free_mask_ | slice.gpu_mask);
  free_cores_ += slice.cores();
  free_gpus_ += slice.gpus();
  notify_changed();
}

}  // namespace flotilla::platform
