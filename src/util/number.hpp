// Canonical number text, shared by util::Config (flotilla-run --config)
// and util::CliParser (every tool's numeric options).
//
// A number has one text, as in scenario spec lines (check/spec.cpp): the
// whole value goes through std::from_chars, which takes no blank, '+' or
// hex float. An integer is also written as std::to_string writes it, with
// no leading zero and no "-0". The callers label the errors with their
// key or option name.
#pragma once

#include <charconv>
#include <concepts>
#include <string_view>
#include <system_error>

namespace flotilla::util {

enum class NumberText {
  kOk,
  kMalformed,   // empty, not a number, or not in the canonical text
  kOutOfRange,  // well formed, but outside the type's range
};

template <std::integral Int>
NumberText parse_canonical(std::string_view text, Int& out) {
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, out);
  const std::string_view digits = text.substr(text.starts_with('-') ? 1 : 0);
  if (ec == std::errc::invalid_argument || end != last ||
      (digits.starts_with('0') && text != "0")) {
    return NumberText::kMalformed;
  }
  if (ec == std::errc::result_out_of_range) return NumberText::kOutOfRange;
  return NumberText::kOk;
}

// Takes the exponent form as well as the fixed one; "inf" and "nan" parse,
// so a caller that needs a finite value checks for it.
inline NumberText parse_canonical(std::string_view text, double& out) {
  const char* last = text.data() + text.size();
  const auto [end, ec] =
      std::from_chars(text.data(), last, out, std::chars_format::general);
  if (ec == std::errc::invalid_argument || end != last) {
    return NumberText::kMalformed;
  }
  if (ec == std::errc::result_out_of_range) return NumberText::kOutOfRange;
  return NumberText::kOk;
}

}  // namespace flotilla::util
