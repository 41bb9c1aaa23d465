// Typed, human-readable entity identifiers.
//
// Mirrors RADICAL-Pilot's id scheme: "task.000042", "pilot.0001",
// "flux.0003". A registry hands out monotonically increasing per-namespace
// counters; ids sort lexicographically in creation order within a namespace.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace flotilla::util {

class IdRegistry {
 public:
  // An id and the counter value formatted into it.
  struct Issued {
    std::uint64_t ordinal = 0;
    std::string id;
  };

  // Returns "<ns>.<counter>" with the counter zero-padded to `width`.
  std::string next(const std::string& ns, int width = 6) {
    return issue(ns, width).id;
  }
  // Same as next(), but also hands back the counter, so a caller can index
  // dense storage by it without parsing the id.
  Issued issue(const std::string& ns, int width = 6);

  // Number of ids handed out so far for `ns`.
  std::uint64_t count(const std::string& ns) const;

  void reset();

 private:
  std::map<std::string, std::uint64_t> counters_;
};

}  // namespace flotilla::util
