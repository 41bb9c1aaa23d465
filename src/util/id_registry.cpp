#include "util/id_registry.hpp"

#include <algorithm>
#include <charconv>

namespace flotilla::util {

std::string IdRegistry::format(std::string_view ns, std::uint64_t ordinal,
                               int width) {
  char digits[20];  // 2^64 - 1 has 20 decimal digits
  const auto length = static_cast<std::size_t>(
      std::to_chars(digits, digits + sizeof digits, ordinal).ptr - digits);
  const std::size_t padding =
      width > 0 && static_cast<std::size_t>(width) > length
          ? static_cast<std::size_t>(width) - length
          : 0;
  // Sized once and written in place, padding zeros included.
  std::string id(ns.size() + 1 + padding + length, '0');
  char* out = std::copy(ns.begin(), ns.end(), id.data());
  *out = '.';
  std::copy_n(digits, length, out + 1 + padding);
  return id;
}

std::uint64_t IdRegistry::next_ordinal(std::string_view ns) {
  auto it = counters_.find(ns);
  if (it == counters_.end()) it = counters_.emplace(ns, 0).first;
  return it->second++;
}

std::uint64_t IdRegistry::count(std::string_view ns) const {
  const auto it = counters_.find(ns);
  return it == counters_.end() ? 0 : it->second;
}

void IdRegistry::reset() {
  counters_.clear();
}

}  // namespace flotilla::util
