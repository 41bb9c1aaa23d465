// Minimal command-line parser for the Flotilla tools and benches.
//
// Supports --key value and --key=value options, --flag booleans, typed
// getters with defaults, and generated --help text. Unknown options are an
// error (catches typos in experiment sweeps).
#pragma once

#include <map>
#include <string>
#include <vector>

namespace flotilla::util {

class CliParser {
 public:
  explicit CliParser(std::string program_summary = "");

  // Declares an option taking a value. Returns *this for chaining.
  CliParser& option(const std::string& name, const std::string& fallback,
                    const std::string& help);
  // Declares a boolean flag (present = true).
  CliParser& flag(const std::string& name, const std::string& help);

  // Parses argv. Returns false (after printing usage) when --help was
  // requested; throws util::Error on unknown or malformed options.
  bool parse(int argc, const char* const* argv);

  std::string get(const std::string& name) const;
  // Typed getters read a number in its one canonical text (no blank, '+',
  // hex float, leading zero or "-0"; util/number.hpp) and throw
  // util::Error, naming the option, on an empty or malformed value, one
  // out of the type's range, or (doubles) inf/nan.
  long get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_flag(const std::string& name) const;

  // Positional arguments left after option parsing.
  const std::vector<std::string>& positional() const { return positional_; }

  std::string usage() const;

 private:
  struct Spec {
    std::string fallback;
    std::string help;
    bool is_flag = false;
  };

  std::string summary_;
  std::string program_;
  std::map<std::string, Spec> specs_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace flotilla::util
