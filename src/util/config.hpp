// Flat key/value configuration with typed accessors.
//
// Used to parameterize sessions, agents and backends, mirroring
// RADICAL-Pilot's resource-config files. Keys are dotted strings
// ("agent.scheduler", "flux.partitions"); values are stored as strings and
// converted on read. Unknown keys fall back to caller-supplied defaults so
// that configs stay forward compatible.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace flotilla::util {

class Config {
 public:
  Config() = default;

  // Parses "key=value" pairs, one per element. Whitespace around key and
  // value is trimmed; lines starting with '#' and empty lines are ignored.
  static Config from_pairs(const std::vector<std::string>& pairs);

  // Parses newline-separated "key=value" text (e.g. file contents).
  static Config from_text(std::string_view text);

  void set(std::string key, std::string value);
  bool has(const std::string& key) const;

  std::string get_string(const std::string& key,
                         std::string fallback = "") const;
  // Numbers are parsed whole, in one canonical text (no blank, '+', hex
  // float, leading zero or "-0"); anything else, an empty value included,
  // throws util::Error naming the key.
  long get_int(const std::string& key, long fallback = 0) const;
  double get_double(const std::string& key, double fallback = 0.0) const;
  bool get_bool(const std::string& key, bool fallback = false) const;

  std::optional<std::string> find(const std::string& key) const;

  // All keys sharing `prefix.` with the prefix stripped, e.g.
  // subset("flux") of {"flux.partitions": "4"} -> {"partitions": "4"}.
  Config subset(const std::string& prefix) const;

  // Overlays `other` on top of *this (other wins on conflicts).
  Config merged_with(const Config& other) const;

  const std::map<std::string, std::string>& entries() const {
    return entries_;
  }

 private:
  std::map<std::string, std::string> entries_;
};

}  // namespace flotilla::util
