// The journal's one encoder. Every line is built by appending into a
// caller-owned string: std::to_chars for times (fixed, 9 decimals — by the
// standard the same text as printf "%.9f") and integers, a hex table for
// the checksum. Nothing here allocates once that string has the capacity
// of a line, which is why the writer and the scribe keep one and reuse it.
#include "journal/record.hpp"

#include <charconv>
#include <cmath>
#include <concepts>
#include <system_error>

#include "util/error.hpp"

namespace flotilla::journal {

namespace {

void put_key(std::string& line, std::string_view key) {
  line += '|';
  line += key;
  line += '=';
}

void put(std::string& line, std::string_view key, std::string_view value) {
  for (const char c : value) {
    if (c == '|' || c == '\n') {
      util::raise("journal: field '", key, "' contains a record delimiter: ",
                  value);
    }
  }
  put_key(line, key);
  line += value;
}

template <std::integral Int>
void put(std::string& line, std::string_view key, Int value) {
  char buf[24];  // 20 digits of a 64-bit integer plus the sign
  char* end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  put_key(line, key);
  line.append(buf, end);
}

void put_time(std::string& line, sim::Time time) {
  put_key(line, "t");
  append_time(line, time);
}

// Closes a line: the checksum covers every byte before its hex digits.
void finish(std::string& line) {
  static constexpr char kHex[] = "0123456789abcdef";
  line += "|h=";
  std::uint32_t sum = fnv1a32(line);
  char tail[9];
  for (int i = 7; i >= 0; --i) {
    tail[i] = kHex[sum & 0xfu];
    sum >>= 4;
  }
  tail[8] = '\n';
  line.append(tail, sizeof(tail));
}

}  // namespace

// Fixed precision keeps the bytes stable across runs, and re-encoding a
// decoded time reproduces the same text (decimal -> nearest double -> same
// decimal).
void append_time(std::string& out, sim::Time time) {
  if (!std::isfinite(time) || std::signbit(time)) {
    util::raise("journal: time ", time, " is not finite and non-negative");
  }
  char buf[kMaxTimeChars];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), time,
                                       std::chars_format::fixed, 9);
  if (ec == std::errc::value_too_large) {
    util::raise("journal: time ", time, " is too large to encode");
  }
  out.append(buf, end);
}

void encode_transition(std::string& out, sim::Time time, std::string_view uid,
                       std::string_view from, std::string_view to,
                       std::string_view backend, std::int64_t attempt) {
  out.assign(to_string(RecordType::kTransition));
  put_time(out, time);
  put(out, "uid", uid);
  put(out, "from", from);
  put(out, "to", to);
  put(out, "backend", backend);
  put(out, "attempt", attempt);
  finish(out);
}

std::string_view to_string(RecordType type) {
  switch (type) {
    case RecordType::kHeader:
      return "journal";
    case RecordType::kReady:
      return "ready";
    case RecordType::kTransition:
      return "task";
    case RecordType::kAlloc:
      return "alloc";
    case RecordType::kFault:
      return "fault";
    case RecordType::kEnd:
      return "end";
  }
  return "?";
}

std::uint32_t fnv1a32(std::string_view text) {
  std::uint32_t h = 2166136261u;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 16777619u;
  }
  return h;
}

void Record::encode_to(std::string& out) const {
  if (type == RecordType::kTransition) {
    encode_transition(out, time, uid, from, to, backend, attempt);
    return;
  }
  out.assign(to_string(type));
  switch (type) {
    case RecordType::kHeader:
      put(out, "v", std::int64_t{1});
      put(out, "seed", seed);
      put(out, "spec", spec);
      break;
    case RecordType::kReady:
      put_time(out, time);
      break;
    case RecordType::kTransition:  // encoded above
      break;
    case RecordType::kAlloc:
      put_time(out, time);
      put(out, "node", node);
      put(out, "cores", cores);
      put(out, "gpus", gpus);
      break;
    case RecordType::kFault:
      put_time(out, time);
      put(out, "kind", kind);
      put(out, "backend", backend);
      put(out, "index", index);
      put(out, "count", count);
      break;
    case RecordType::kEnd:
      put_time(out, time);
      put(out, "done", done);
      put(out, "failed", failed);
      put(out, "canceled", canceled);
      put(out, "events", events);
      break;
  }
  finish(out);
}

Record header_record(std::uint64_t seed, std::string spec) {
  Record r;
  r.type = RecordType::kHeader;
  r.seed = seed;
  r.spec = std::move(spec);
  return r;
}

Record ready_record(sim::Time time) {
  Record r;
  r.type = RecordType::kReady;
  r.time = time;
  return r;
}

Record transition_record(sim::Time time, std::string uid, std::string from,
                         std::string to, std::string backend,
                         std::int64_t attempt) {
  Record r;
  r.type = RecordType::kTransition;
  r.time = time;
  r.uid = std::move(uid);
  r.from = std::move(from);
  r.to = std::move(to);
  r.backend = std::move(backend);
  r.attempt = attempt;
  return r;
}

Record alloc_record(sim::Time time, std::int64_t node, std::int64_t cores,
                    std::int64_t gpus) {
  Record r;
  r.type = RecordType::kAlloc;
  r.time = time;
  r.node = node;
  r.cores = cores;
  r.gpus = gpus;
  return r;
}

Record fault_record(sim::Time time, std::string kind, std::string backend,
                    std::int64_t index, std::int64_t count) {
  Record r;
  r.type = RecordType::kFault;
  r.time = time;
  r.kind = std::move(kind);
  r.backend = std::move(backend);
  r.index = index;
  r.count = count;
  return r;
}

Record end_record(sim::Time time, std::int64_t done, std::int64_t failed,
                  std::int64_t canceled, std::uint64_t events) {
  Record r;
  r.type = RecordType::kEnd;
  r.time = time;
  r.done = done;
  r.failed = failed;
  r.canceled = canceled;
  r.events = events;
  return r;
}

}  // namespace flotilla::journal
