#include "check/spec.hpp"

#include <charconv>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <set>
#include <sstream>
#include <string_view>
#include <system_error>

#include "ingress/arrival.hpp"
#include "util/error.hpp"
#include "util/strfmt.hpp"

namespace flotilla::check {

namespace {

// Spec lines come from outside (--replay, --crash-all), so every number
// is range-checked: a value outside [lo, hi] is a labeled error. Doubles
// must also be finite; nan slips through every comparison. A double has
// one text, as for the integers below: from_chars takes no blank, '+' or
// hex float and must use the whole value. It keeps exponents, which
// util::exact_double's %.17g writes.
double parse_double(const std::string& s, const std::string& what,
                    double lo = 0.0,
                    double hi = std::numeric_limits<double>::max()) {
  double v = 0.0;
  const char* last = s.data() + s.size();
  const auto [end, ec] =
      std::from_chars(s.data(), last, v, std::chars_format::general);
  if (ec == std::errc::result_out_of_range) {
    util::raise("spec: ", what, " out of range: ", s);
  }
  if (ec != std::errc()) util::raise("spec: bad number for ", what, ": ", s);
  if (end != last) util::raise("spec: trailing junk in ", what, ": ", s);
  if (!std::isfinite(v)) util::raise("spec: non-finite ", what, ": ", s);
  if (v < lo || v > hi) util::raise("spec: ", what, " out of range: ", s);
  return v;
}

constexpr long long kIntMin = std::numeric_limits<int>::min();
constexpr long long kIntMax = std::numeric_limits<int>::max();
constexpr long long kInt64Max = std::numeric_limits<long long>::max();

// Integers must be written the way to_string() writes them: digits, with
// a '-' only on a negative value of a signed key, and no '+', blank,
// leading zero or "-0". So a line means one number or is refused, and a
// negative never wraps into an unsigned key. Values are range-checked
// before they narrow.
template <typename Int>
Int parse_integer(const std::string& s, const std::string& what, Int lo,
                  Int hi) {
  Int v{};
  const char* last = s.data() + s.size();
  const auto [end, ec] = std::from_chars(s.data(), last, v);
  const std::string_view digits =
      std::string_view(s).substr(s.starts_with('-') ? 1 : 0);
  if (ec == std::errc::invalid_argument || end != last ||
      (digits.starts_with('0') && s != "0")) {
    util::raise("spec: bad integer for ", what, ": ", s);
  }
  if (ec == std::errc::result_out_of_range || v < lo || v > hi) {
    util::raise("spec: ", what, " out of range: ", s);
  }
  return v;
}

long long parse_int(const std::string& s, const std::string& what,
                    long long lo = kIntMin, long long hi = kIntMax) {
  return parse_integer(s, what, lo, hi);
}

std::uint64_t parse_u64(const std::string& s, const std::string& what) {
  return parse_integer(s, what, std::uint64_t{0},
                       std::numeric_limits<std::uint64_t>::max());
}

// Names are checked here too, not first where the runner reads them, so a
// line naming something this build does not know is a labeled error rather
// than a violation mid-run or a silent fall back to a default.
const std::string& parse_name(const std::string& s, const std::string& what,
                              std::initializer_list<std::string_view> known) {
  for (const std::string_view k : known) {
    if (s == k) return s;
  }
  util::raise("spec: unknown ", what, ": ", s);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream is(s);
  while (std::getline(is, item, sep)) out.push_back(item);
  return out;
}

// `type:pP:nN:dD` — partitions, nodes, flux backfill depth; fields after
// the type are optional and keep BackendSpec defaults when absent.
std::string backend_str(const core::BackendSpec& b) {
  std::string out = b.type;
  out += ":p" + std::to_string(b.partitions);
  out += ":n" + std::to_string(b.nodes);
  out += ":d" + std::to_string(b.flux_backfill_depth);
  return out;
}

core::BackendSpec parse_backend(const std::string& token) {
  const auto fields = split(token, ':');
  if (fields.empty() || fields[0].empty()) {
    util::raise("spec: empty backend entry: ", token);
  }
  core::BackendSpec b;
  b.type = parse_name(fields[0], "backend type",
                      {"srun", "flux", "dragon", "prrte"});
  for (std::size_t i = 1; i < fields.size(); ++i) {
    const auto& f = fields[i];
    if (f.size() < 2) util::raise("spec: bad backend field: ", token);
    const auto value = f.substr(1);
    switch (f[0]) {
      case 'p':
        b.partitions = static_cast<int>(parse_int(value, "partitions"));
        break;
      case 'n':
        b.nodes = static_cast<int>(parse_int(value, "backend nodes"));
        break;
      case 'd':
        b.flux_backfill_depth =
            static_cast<int>(parse_int(value, "backfill depth"));
        break;
      default:
        util::raise("spec: unknown backend field '", f[0], "' in ", token);
    }
  }
  return b;
}

// `crash@T:backend:index` or `cancel@T:count`.
std::string fault_str(const FaultSpec& f) {
  if (f.kind == FaultSpec::Kind::kCrash) {
    return "crash@" + util::exact_double(f.time) + ":" + f.backend + ":" +
           std::to_string(f.index);
  }
  return "cancel@" + util::exact_double(f.time) + ":" +
         std::to_string(f.count);
}

FaultSpec parse_fault(const std::string& token) {
  const auto at = token.find('@');
  if (at == std::string::npos) util::raise("spec: bad fault entry: ", token);
  const auto kind = token.substr(0, at);
  const auto fields = split(token.substr(at + 1), ':');
  FaultSpec f;
  if (fields.empty()) util::raise("spec: bad fault entry: ", token);
  f.time = parse_double(fields[0], "fault time");
  if (kind == "crash") {
    if (fields.size() != 3) util::raise("spec: bad crash fault: ", token);
    f.kind = FaultSpec::Kind::kCrash;
    f.backend =
        parse_name(fields[1], "crash backend", {"flux", "dragon", "prrte"});
    f.index = static_cast<int>(parse_int(fields[2], "crash index", 0));
  } else if (kind == "cancel") {
    if (fields.size() != 2) util::raise("spec: bad cancel fault: ", token);
    f.kind = FaultSpec::Kind::kCancelStorm;
    f.count = static_cast<int>(parse_int(fields[1], "cancel count"));
  } else {
    util::raise("spec: unknown fault kind: ", kind);
  }
  return f;
}

}  // namespace

std::string ScenarioSpec::to_string() const {
  std::string out;
  out += "seed=" + std::to_string(seed);
  out += ";nodes=" + std::to_string(nodes);
  out += ";backends=";
  for (std::size_t i = 0; i < backends.size(); ++i) {
    if (i) out += ',';
    out += backend_str(backends[i]);
  }
  out += ";workload=" + workload;
  out += ";tasks=" + std::to_string(tasks);
  out += ";duration=" + util::exact_double(duration);
  out += ";cores=" + std::to_string(cores);
  out += ";gpus=" + std::to_string(gpus);
  out += ";fail=" + util::exact_double(fail_probability);
  out += ";retries=" + std::to_string(max_retries);
  out += ";router=" + router;
  out += ";placement=" + placement;
  out += ";dragon_queue=" + dragon_queue;
  // Emitted only when armed so pre-ingress spec lines stay stable.
  if (clients != 0) {
    out += ";clients=" + std::to_string(clients);
    out += ";arrival=" + arrival + ":" + util::exact_double(arrival_param);
    out += ";admit=" + admit + ":" + std::to_string(admit_capacity);
  }
  if (!faults.empty()) {
    out += ";faults=";
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (i) out += ',';
      out += fault_str(faults[i]);
    }
  }
  // Emitted only when non-default so pre-recovery spec lines stay stable.
  if (crash_at != 0) out += ";crash_at=" + std::to_string(crash_at);
  if (!recover) out += ";recover=0";
  if (bug != "none") out += ";bug=" + bug;
  return out;
}

ScenarioSpec ScenarioSpec::parse(const std::string& text) {
  ScenarioSpec spec;
  spec.backends.clear();
  std::set<std::string> seen;
  for (const auto& pair : split(text, ';')) {
    if (pair.empty()) continue;
    const auto eq = pair.find('=');
    if (eq == std::string::npos) {
      util::raise("spec: expected key=value, got: ", pair);
    }
    const auto key = pair.substr(0, eq);
    const auto value = pair.substr(eq + 1);
    // A second value for a key would silently win over the first.
    if (!seen.insert(key).second) util::raise("spec: repeated key ", key);
    if (key == "seed") {
      spec.seed = parse_u64(value, "seed");
    } else if (key == "nodes") {
      spec.nodes = static_cast<int>(parse_int(value, "nodes", 1));
    } else if (key == "shards" || key == "threads") {
      // The engine-shape keys went with the sharded engine; a line that
      // still carries one was written for a run this build cannot do.
      util::raise("spec: retired key ", key);
    } else if (key == "backends") {
      for (const auto& token : split(value, ',')) {
        spec.backends.push_back(parse_backend(token));
      }
    } else if (key == "workload") {
      spec.workload = parse_name(value, "workload",
                                 {"null", "sleep", "hetero", "impeccable"});
    } else if (key == "tasks") {
      spec.tasks = static_cast<int>(parse_int(value, "tasks", 0));
    } else if (key == "duration") {
      spec.duration = parse_double(value, "duration");
    } else if (key == "cores") {
      spec.cores = parse_int(value, "cores", 0, kInt64Max);
    } else if (key == "gpus") {
      spec.gpus = parse_int(value, "gpus", 0, kInt64Max);
    } else if (key == "fail") {
      spec.fail_probability = parse_double(value, "fail", 0.0, 1.0);
    } else if (key == "retries") {
      spec.max_retries = static_cast<int>(parse_int(value, "retries", 0));
    } else if (key == "router") {
      spec.router = parse_name(value, "router", {"static", "adaptive"});
    } else if (key == "placement") {
      spec.placement = parse_name(value, "placement policy",
                                  {"first-fit", "best-fit", "gpu-pack"});
    } else if (key == "dragon_queue") {
      spec.dragon_queue =
          parse_name(value, "dragon queue", {"fifo", "priority"});
    } else if (key == "clients") {
      spec.clients = static_cast<int>(parse_int(value, "clients", 1));
    } else if (key == "arrival") {
      const auto colon = value.find(':');
      if (colon == std::string::npos) {
        util::raise("spec: arrival must be kind:param, got: ", value);
      }
      spec.arrival = value.substr(0, colon);
      // The ingress layer owns the set of kinds; it refuses unknown ones.
      ingress::ArrivalConfig::parse(spec.arrival);
      spec.arrival_param =
          parse_double(value.substr(colon + 1), "arrival param");
    } else if (key == "admit") {
      const auto colon = value.find(':');
      if (colon == std::string::npos) {
        util::raise("spec: admit must be policy:capacity, got: ", value);
      }
      spec.admit = parse_name(value.substr(0, colon), "admission policy",
                              {"reject", "defer"});
      spec.admit_capacity = static_cast<int>(
          parse_int(value.substr(colon + 1), "admit capacity", 0));
    } else if (key == "faults") {
      for (const auto& token : split(value, ',')) {
        spec.faults.push_back(parse_fault(token));
      }
    } else if (key == "crash_at") {
      spec.crash_at = parse_u64(value, "crash_at");
    } else if (key == "recover") {
      spec.recover = parse_int(value, "recover", 0, 1) != 0;
    } else if (key == "bug") {
      spec.bug = parse_name(value, "bug injection",
                            {"none", "overcommit", "state-loss"});
    } else {
      util::raise("spec: unknown key: ", key);
    }
  }
  if (spec.backends.empty()) spec.backends.push_back({"srun"});
  return spec;
}

}  // namespace flotilla::check
