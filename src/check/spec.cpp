#include "check/spec.hpp"

#include <cstdio>
#include <limits>
#include <sstream>

#include "util/error.hpp"

namespace flotilla::check {

namespace {

// %.17g round-trips every binary64 value through text exactly, which is
// what makes a replayed spec bit-identical to the generated one.
std::string double_str(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double parse_double(const std::string& s, const std::string& what) {
  try {
    std::size_t used = 0;
    const double v = std::stod(s, &used);
    if (used != s.size()) util::raise("spec: trailing junk in ", what, ": ", s);
    return v;
  } catch (const std::invalid_argument&) {
    util::raise("spec: bad number for ", what, ": ", s);
  } catch (const std::out_of_range&) {
    util::raise("spec: number out of range for ", what, ": ", s);
  }
}

constexpr long long kIntMin = std::numeric_limits<int>::min();
constexpr long long kIntMax = std::numeric_limits<int>::max();
constexpr long long kInt64Max = std::numeric_limits<long long>::max();
// Storm-oracle engine shape: each thread is a real std::thread.
constexpr long long kMaxShards = 64;

// Spec lines come from outside (--replay, --crash-all), so every integer
// is range-checked before it narrows: a value outside [lo, hi] is an
// error, never a wrapped or negative count.
long long parse_int(const std::string& s, const std::string& what,
                    long long lo = kIntMin, long long hi = kIntMax) {
  long long v = 0;
  try {
    std::size_t used = 0;
    v = std::stoll(s, &used);
    if (used != s.size()) util::raise("spec: trailing junk in ", what, ": ", s);
  } catch (const std::invalid_argument&) {
    util::raise("spec: bad integer for ", what, ": ", s);
  } catch (const std::out_of_range&) {
    util::raise("spec: ", what, " out of range: ", s);
  }
  if (v < lo || v > hi) util::raise("spec: ", what, " out of range: ", s);
  return v;
}

std::uint64_t parse_u64(const std::string& s, const std::string& what) {
  try {
    std::size_t used = 0;
    const unsigned long long v = std::stoull(s, &used);
    if (used != s.size()) util::raise("spec: trailing junk in ", what, ": ", s);
    return v;
  } catch (const std::invalid_argument&) {
    util::raise("spec: bad integer for ", what, ": ", s);
  } catch (const std::out_of_range&) {
    util::raise("spec: integer out of range for ", what, ": ", s);
  }
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
  b.type = fields[0];
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
    return "crash@" + double_str(f.time) + ":" + f.backend + ":" +
           std::to_string(f.index);
  }
  return "cancel@" + double_str(f.time) + ":" + std::to_string(f.count);
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
    f.backend = fields[1];
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
  // Emitted only when non-default so pre-sharding spec lines stay stable.
  if (shards != 1) out += ";shards=" + std::to_string(shards);
  if (threads != 1) out += ";threads=" + std::to_string(threads);
  out += ";backends=";
  for (std::size_t i = 0; i < backends.size(); ++i) {
    if (i) out += ',';
    out += backend_str(backends[i]);
  }
  out += ";workload=" + workload;
  out += ";tasks=" + std::to_string(tasks);
  out += ";duration=" + double_str(duration);
  out += ";cores=" + std::to_string(cores);
  out += ";gpus=" + std::to_string(gpus);
  out += ";fail=" + double_str(fail_probability);
  out += ";retries=" + std::to_string(max_retries);
  out += ";router=" + router;
  out += ";placement=" + placement;
  out += ";dragon_queue=" + dragon_queue;
  // Emitted only when armed so pre-ingress spec lines stay stable.
  if (clients != 0) {
    out += ";clients=" + std::to_string(clients);
    out += ";arrival=" + arrival + ":" + double_str(arrival_param);
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
  for (const auto& pair : split(text, ';')) {
    if (pair.empty()) continue;
    const auto eq = pair.find('=');
    if (eq == std::string::npos) {
      util::raise("spec: expected key=value, got: ", pair);
    }
    const auto key = pair.substr(0, eq);
    const auto value = pair.substr(eq + 1);
    if (key == "seed") {
      spec.seed = parse_u64(value, "seed");
    } else if (key == "nodes") {
      spec.nodes = static_cast<int>(parse_int(value, "nodes", 1));
    } else if (key == "shards") {
      spec.shards = static_cast<int>(parse_int(value, "shards", 1, kMaxShards));
    } else if (key == "threads") {
      spec.threads =
          static_cast<int>(parse_int(value, "threads", 1, kMaxShards));
    } else if (key == "backends") {
      for (const auto& token : split(value, ',')) {
        spec.backends.push_back(parse_backend(token));
      }
    } else if (key == "workload") {
      spec.workload = value;
    } else if (key == "tasks") {
      spec.tasks = static_cast<int>(parse_int(value, "tasks", 0));
    } else if (key == "duration") {
      spec.duration = parse_double(value, "duration");
    } else if (key == "cores") {
      spec.cores = parse_int(value, "cores", 0, kInt64Max);
    } else if (key == "gpus") {
      spec.gpus = parse_int(value, "gpus", 0, kInt64Max);
    } else if (key == "fail") {
      spec.fail_probability = parse_double(value, "fail");
    } else if (key == "retries") {
      spec.max_retries = static_cast<int>(parse_int(value, "retries", 0));
    } else if (key == "router") {
      spec.router = value;
    } else if (key == "placement") {
      spec.placement = value;
    } else if (key == "dragon_queue") {
      spec.dragon_queue = value;
    } else if (key == "clients") {
      spec.clients = static_cast<int>(parse_int(value, "clients", 1));
    } else if (key == "arrival") {
      const auto colon = value.find(':');
      if (colon == std::string::npos) {
        util::raise("spec: arrival must be kind:param, got: ", value);
      }
      spec.arrival = value.substr(0, colon);
      spec.arrival_param =
          parse_double(value.substr(colon + 1), "arrival param");
    } else if (key == "admit") {
      const auto colon = value.find(':');
      if (colon == std::string::npos) {
        util::raise("spec: admit must be policy:capacity, got: ", value);
      }
      spec.admit = value.substr(0, colon);
      spec.admit_capacity = static_cast<int>(
          parse_int(value.substr(colon + 1), "admit capacity"));
    } else if (key == "faults") {
      for (const auto& token : split(value, ',')) {
        spec.faults.push_back(parse_fault(token));
      }
    } else if (key == "crash_at") {
      spec.crash_at = parse_u64(value, "crash_at");
    } else if (key == "recover") {
      spec.recover = parse_int(value, "recover", 0, 1) != 0;
    } else if (key == "bug") {
      spec.bug = value;
    } else {
      util::raise("spec: unknown key: ", key);
    }
  }
  if (spec.backends.empty()) spec.backends.push_back({"srun"});
  return spec;
}

}  // namespace flotilla::check
