#include "util/config.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <system_error>

#include "util/error.hpp"

namespace flotilla::util {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

void parse_pair(Config& config, std::string_view line) {
  line = trim(line);
  if (line.empty() || line.front() == '#') return;
  const auto eq = line.find('=');
  FLOT_CHECK(eq != std::string_view::npos, "config entry missing '=': ", line);
  const auto key = trim(line.substr(0, eq));
  const auto value = trim(line.substr(eq + 1));
  FLOT_CHECK(!key.empty(), "config entry has empty key: ", line);
  config.set(std::string(key), std::string(value));
}

}  // namespace

Config Config::from_pairs(const std::vector<std::string>& pairs) {
  Config config;
  for (const auto& pair : pairs) parse_pair(config, pair);
  return config;
}

Config Config::from_text(std::string_view text) {
  Config config;
  while (!text.empty()) {
    const auto nl = text.find('\n');
    const auto line =
        nl == std::string_view::npos ? text : text.substr(0, nl);
    parse_pair(config, line);
    if (nl == std::string_view::npos) break;
    text = text.substr(nl + 1);
  }
  return config;
}

void Config::set(std::string key, std::string value) {
  entries_[std::move(key)] = std::move(value);
}

bool Config::has(const std::string& key) const {
  return entries_.count(key) != 0;
}

std::optional<std::string> Config::find(const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_string(const std::string& key,
                               std::string fallback) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? std::move(fallback) : it->second;
}

// A number has one text, as in scenario specs (check/spec.cpp): the whole
// value goes through from_chars, which takes no blank, '+' or hex float.
// An integer is written as to_string writes it, with no leading zero or
// "-0".
long Config::get_int(const std::string& key, long fallback) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  const std::string& text = it->second;
  long value = 0;
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  const std::string_view digits =
      std::string_view(text).substr(text.starts_with('-') ? 1 : 0);
  if (ec == std::errc::invalid_argument || end != last ||
      (digits.starts_with('0') && text != "0")) {
    raise("config key '", key, "' is not an integer: '", text, "'");
  }
  if (ec == std::errc::result_out_of_range) {
    raise("config key '", key, "' is out of range: '", text, "'");
  }
  return value;
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  const std::string& text = it->second;
  double value = 0.0;
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value,
                                         std::chars_format::general);
  if (ec == std::errc::invalid_argument || end != last) {
    raise("config key '", key, "' is not a number: '", text, "'");
  }
  if (ec == std::errc::result_out_of_range) {
    raise("config key '", key, "' is out of range: '", text, "'");
  }
  return value;
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  std::string v = it->second;
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  raise("config key '", key, "' is not a boolean: ", it->second);
}

Config Config::subset(const std::string& prefix) const {
  Config result;
  const std::string full = prefix + ".";
  for (const auto& [key, value] : entries_) {
    if (key.rfind(full, 0) == 0) {
      result.set(key.substr(full.size()), value);
    }
  }
  return result;
}

Config Config::merged_with(const Config& other) const {
  Config result = *this;
  for (const auto& [key, value] : other.entries_) result.set(key, value);
  return result;
}

}  // namespace flotilla::util
