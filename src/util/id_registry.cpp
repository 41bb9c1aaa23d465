#include "util/id_registry.hpp"

#include <charconv>

namespace flotilla::util {

IdRegistry::Issued IdRegistry::issue(const std::string& ns, int width) {
  const std::uint64_t value = counters_[ns]++;
  char digits[20] = {};  // 2^64 - 1 has 20 decimal digits
  const auto length = static_cast<std::size_t>(
      std::to_chars(digits, digits + sizeof digits, value).ptr - digits);
  const std::size_t padding =
      width > 0 && static_cast<std::size_t>(width) > length
          ? static_cast<std::size_t>(width) - length
          : 0;
  Issued issued;
  issued.ordinal = value;
  issued.id.reserve(ns.size() + 1 + padding + length);
  issued.id.append(ns).append(1, '.').append(padding, '0').append(digits,
                                                                  length);
  return issued;
}

std::uint64_t IdRegistry::count(const std::string& ns) const {
  const auto it = counters_.find(ns);
  return it == counters_.end() ? 0 : it->second;
}

void IdRegistry::reset() {
  counters_.clear();
}

}  // namespace flotilla::util
