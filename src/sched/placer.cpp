#include "sched/placer.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace flotilla::sched {

Placer::Placer(platform::Cluster& cluster, platform::NodeRange range,
               PlacerOptions options)
    : cluster_(cluster),
      range_(range),
      options_(options),
      policy_(make_placement_policy(options.policy)),
      cursor_(range.first) {
  FLOT_CHECK(range.count >= 1, "placer needs a non-empty range");
  FLOT_CHECK(range.end() <= cluster.size(),
             "placer range exceeds cluster: end=", range.end());
  if (options_.use_index) {
    index_ = std::make_unique<FreeResourceIndex>(cluster_, range_);
  }
}

// The rejection memo is exact. It does not rest on "first-fit finds a fit
// whenever one exists": at a fixed origin that is false for non-uniform
// chunks. Demand {cores=66, cpn=56} is a 56-core and a 10-core chunk; with
// node0 at 20 free cores and node1 at 56, chunk 1 takes node1, chunk 2
// searches [2, end), the wrap window [first, first) is empty, and first-fit
// rejects although a fit exists. The memo is sound by dominance instead.
// Let F' <= F pointwise (every node's free cores and GPUs in F' are at most
// those in F). The chunk requirement sequence depends only on the demand,
// and a node that meets a requirement in F' meets it in F, so by induction
// the i-th pick in F' lies at or after the i-th pick in F: if the greedy
// scan fails on F, it fails on F'. The loose path rejects iff the range's
// total free cores or GPUs fall short, which is monotone too. Between two
// release-generation moves every node change is an allocation, so the
// free set only shrinks and a remembered rejection still holds.
bool Placer::known_rejected(const platform::ResourceDemand& demand) {
  const std::uint64_t generation = index_->release_generation();
  if (generation != rejected_generation_) {
    rejected_.clear();
    rejected_generation_ = generation;
    return false;
  }
  return std::find(rejected_.begin(), rejected_.end(), demand) !=
         rejected_.end();
}

std::optional<platform::Placement> Placer::place(
    const platform::ResourceDemand& demand) {
  ++stats_.attempts;
  const bool memo = memo_enabled();
  std::optional<platform::Placement> placement;
  if (memo && known_rejected(demand)) {
    ++stats_.memo_hits;
  } else {
    PlacementInput in{cluster_, range_,
                      options_.rotate_cursor ? &cursor_ : nullptr,
                      index_.get()};
    placement = policy_->place(in, demand);
    if (memo && !placement && rejected_.size() < kRejectedMemoCapacity) {
      rejected_.push_back(demand);
    }
  }
  placement ? ++stats_.placed : ++stats_.rejected;
  trace_.instant(obs::SpanType::kPlacementAttempt, trace_component_, "",
                 placement ? 1.0 : 0.0);
  return placement;
}

void Placer::release(const platform::Placement& placement) {
  cluster_.release(placement);
}

}  // namespace flotilla::sched
