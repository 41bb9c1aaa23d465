#include "util/cli.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/error.hpp"
#include "util/number.hpp"

namespace flotilla::util {

CliParser::CliParser(std::string program_summary)
    : summary_(std::move(program_summary)) {}

CliParser& CliParser::option(const std::string& name,
                             const std::string& fallback,
                             const std::string& help) {
  FLOT_CHECK(!specs_.count(name), "duplicate option --", name);
  specs_[name] = Spec{fallback, help, false};
  return *this;
}

CliParser& CliParser::flag(const std::string& name, const std::string& help) {
  FLOT_CHECK(!specs_.count(name), "duplicate flag --", name);
  specs_[name] = Spec{"", help, true};
  return *this;
}

std::string CliParser::usage() const {
  std::ostringstream os;
  os << "usage: " << (program_.empty() ? "prog" : program_)
     << " [options]\n";
  if (!summary_.empty()) os << summary_ << "\n";
  os << "options:\n";
  for (const auto& [name, spec] : specs_) {
    os << "  --" << name;
    if (!spec.is_flag) os << " <value> (default: " << spec.fallback << ")";
    os << "\n      " << spec.help << "\n";
  }
  os << "  --help\n      print this message\n";
  return os.str();
}

bool CliParser::parse(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    const auto eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    const auto it = specs_.find(name);
    FLOT_CHECK(it != specs_.end(), "unknown option --", name, "\n", usage());
    if (it->second.is_flag) {
      FLOT_CHECK(!has_value, "flag --", name, " does not take a value");
      // A constructed string moved in: assigning the literal to the
      // mapped string trips GCC 12's -Wrestrict false positive at -O3.
      values_.insert_or_assign(std::move(name), std::string("1"));
      continue;
    }
    if (!has_value) {
      FLOT_CHECK(i + 1 < argc, "option --", name, " needs a value");
      value = argv[++i];
    }
    values_[name] = std::move(value);
  }
  return true;
}

std::string CliParser::get(const std::string& name) const {
  const auto spec = specs_.find(name);
  FLOT_CHECK(spec != specs_.end(), "undeclared option --", name);
  const auto it = values_.find(name);
  return it == values_.end() ? spec->second.fallback : it->second;
}

// Numbers are read in their one canonical text (util/number.hpp), as
// config values are.
long CliParser::get_int(const std::string& name) const {
  const auto value = get(name);
  if (value.empty()) raise("option --", name, " needs an integer value");
  long result = 0;
  switch (parse_canonical(value, result)) {
    case NumberText::kOk:
      return result;
    case NumberText::kMalformed:
      raise("option --", name, " is not an integer: ", value);
    case NumberText::kOutOfRange:
      break;
  }
  raise("option --", name, " is out of range: ", value);
}

double CliParser::get_double(const std::string& name) const {
  const auto value = get(name);
  if (value.empty()) raise("option --", name, " needs a numeric value");
  double result = 0.0;
  switch (parse_canonical(value, result)) {
    case NumberText::kOk:
      break;
    case NumberText::kMalformed:
      raise("option --", name, " is not a number: ", value);
    case NumberText::kOutOfRange:
      raise("option --", name, " is out of range: ", value);
  }
  if (!std::isfinite(result)) {
    raise("option --", name, " is not finite: ", value);
  }
  return result;
}

bool CliParser::get_flag(const std::string& name) const {
  const auto spec = specs_.find(name);
  FLOT_CHECK(spec != specs_.end() && spec->second.is_flag,
             "undeclared flag --", name);
  return values_.count(name) != 0;
}

}  // namespace flotilla::util
