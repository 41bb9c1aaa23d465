// Minimal string formatting helpers.
//
// GCC 12 does not ship std::format, so we provide a tiny, allocation-light
// replacement sufficient for log lines and table rendering:
//
//   cat("tasks=", n, " rate=", rate)        -> "tasks=42 rate=9.5"
//   fmt("submit {} to {}", id, backend)     -> "submit t.1 to flux"
//
// `fmt` replaces each "{}" in order; surplus arguments are appended, surplus
// placeholders are left verbatim. Not a std::format clone by design.
//
//   exact_double(0.1)                       -> "0.10000000000000001"
#pragma once

#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

namespace flotilla::util {

namespace detail {

inline void cat_one(std::ostringstream& os) { (void)os; }

template <typename T, typename... Rest>
void cat_one(std::ostringstream& os, T&& v, Rest&&... rest) {
  os << std::forward<T>(v);
  cat_one(os, std::forward<Rest>(rest)...);
}

}  // namespace detail

template <typename... Args>
std::string cat(Args&&... args) {
  std::ostringstream os;
  detail::cat_one(os, std::forward<Args>(args)...);
  return os.str();
}

namespace detail {

inline void fmt_step(std::ostringstream& os, std::string_view& spec) {
  os << spec;
  spec = {};
}

template <typename T, typename... Rest>
void fmt_step(std::ostringstream& os, std::string_view& spec, T&& v,
              Rest&&... rest) {
  const auto pos = spec.find("{}");
  if (pos == std::string_view::npos) {
    os << spec << ' ' << std::forward<T>(v);
    spec = {};
  } else {
    os << spec.substr(0, pos) << std::forward<T>(v);
    spec = spec.substr(pos + 2);
  }
  fmt_step(os, spec, std::forward<Rest>(rest)...);
}

}  // namespace detail

template <typename... Args>
std::string fmt(std::string_view spec, Args&&... args) {
  std::ostringstream os;
  detail::fmt_step(os, spec, std::forward<Args>(args)...);
  if (!spec.empty()) os << spec;
  return os.str();
}

// "%.17g": enough digits that parsing the text back yields the same
// binary64 value, so a written spec, arrival token or trace replays
// exactly the numbers it was made from.
inline std::string exact_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace flotilla::util
