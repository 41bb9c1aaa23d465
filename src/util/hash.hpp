// FNV-1a-64: the one byte-wise hash behind the run fingerprint
// (obs::Tracer::digest, check::RunResult::fingerprint) and the RNG
// stream names (sim::RngStream::hash).
//
//   std::uint64_t h = util::fnv1a64(util::kFnv64Basis, "task.000001");
//   h = util::fnv1a64(h, "|done");   // fold more bytes into the same hash
#pragma once

#include <cstdint>
#include <string_view>

namespace flotilla::util {

inline constexpr std::uint64_t kFnv64Basis = 14695981039346656037ull;
inline constexpr std::uint64_t kFnv64Prime = 1099511628211ull;

// Folds `bytes` into the running hash `h`; start from kFnv64Basis.
inline std::uint64_t fnv1a64(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnv64Prime;
  }
  return h;
}

}  // namespace flotilla::util
