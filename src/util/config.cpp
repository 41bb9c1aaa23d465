#include "util/config.hpp"

#include <cctype>

#include "util/error.hpp"
#include "util/number.hpp"

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

// Numbers are read in their one canonical text (util/number.hpp).
long Config::get_int(const std::string& key, long fallback) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  long value = 0;
  switch (parse_canonical(it->second, value)) {
    case NumberText::kOk:
      return value;
    case NumberText::kMalformed:
      raise("config key '", key, "' is not an integer: '", it->second, "'");
    case NumberText::kOutOfRange:
      break;
  }
  raise("config key '", key, "' is out of range: '", it->second, "'");
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  double value = 0.0;
  switch (parse_canonical(it->second, value)) {
    case NumberText::kOk:
      return value;
    case NumberText::kMalformed:
      raise("config key '", key, "' is not a number: '", it->second, "'");
    case NumberText::kOutOfRange:
      break;
  }
  raise("config key '", key, "' is out of range: '", it->second, "'");
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

}  // namespace flotilla::util
