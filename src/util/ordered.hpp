// Deterministic iteration over unordered associative containers.
//
// Hash-map iteration order depends on the allocator, the stdlib, and the
// insertion history — letting it drive event ordering silently breaks the
// simulator's reproducibility guarantee (see docs/correctness.md and the
// `unordered-iteration` rule in src/analyze/determinism.cpp). Where a hot path
// genuinely needs a hash map, snapshot the keys with sorted_keys() and
// iterate those instead.
#pragma once

#include <algorithm>
#include <vector>

namespace flotilla::util {

template <typename Assoc>
std::vector<typename Assoc::key_type> sorted_keys(const Assoc& assoc) {
  std::vector<typename Assoc::key_type> keys;
  keys.reserve(assoc.size());
  for (const auto& entry : assoc) keys.push_back(entry.first);
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace flotilla::util
