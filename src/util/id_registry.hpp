// Typed, human-readable entity identifiers.
//
// Mirrors RADICAL-Pilot's id scheme: "task.000042", "pilot.0001",
// "flux.0003". A registry hands out monotonically increasing per-namespace
// counters; ids sort lexicographically in creation order within a namespace.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

namespace flotilla::util {

class IdRegistry {
 public:
  static constexpr int kDefaultWidth = 6;

  // Returns "<ns>.<counter>" with the counter zero-padded to `width`.
  std::string next(std::string_view ns, int width = kDefaultWidth) {
    return format(ns, next_ordinal(ns), width);
  }
  // Takes the next counter value for `ns` without formatting an id, for a
  // caller that keeps only the ordinal and formats the id when asked.
  std::uint64_t next_ordinal(std::string_view ns);
  // The id next() gives counter value `ordinal` of `ns`.
  static std::string format(std::string_view ns, std::uint64_t ordinal,
                            int width = kDefaultWidth);

  // Number of ids handed out so far for `ns`.
  std::uint64_t count(std::string_view ns) const;

  void reset();

 private:
  std::map<std::string, std::uint64_t, std::less<>> counters_;
};

}  // namespace flotilla::util
