// The journal's one encoder. Every line is assembled by a LineBuilder:
// numbers are formatted into the builder's own buffer and string fields
// are checked for delimiters first, then the caller-owned line is sized
// once and each piece is copied in through a pointer, followed by the
// FNV-1a-32 checksum in hex and '\n'. Optional fields (a task's backend
// and attempt, an alloc's GPUs, a fault's backend) are left out when they
// hold their default, empty or zero. Times go through an exact integer
// formatter (append_time); integers through std::to_chars. Nothing here
// allocates once the line has the capacity of a record, which is why the
// writer and the scribe keep one and reuse it.
#include "journal/record.hpp"

#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstring>
#include <system_error>

#include "util/error.hpp"

namespace flotilla::journal {

namespace {

using Wide = unsigned __int128;

constexpr std::uint64_t kNanosPerSecond = 1'000'000'000;
constexpr int kExponentBias = 1023;
constexpr int kMantissaBits = 52;
constexpr std::uint64_t kImplicitBit = std::uint64_t{1} << kMantissaBits;

char* copy(char* dst, std::string_view text) {
  std::memcpy(dst, text.data(), text.size());
  return dst + text.size();
}

// Writes `time` in the canonical form at `first`, which must have room for
// kMaxTimeChars, and returns the end. A finite non-negative double is
// t = m·2^-k exactly, so below 2^64 ns the printf "%.9f" text is
// q = round-half-even(m·10^9 / 2^k) nanoseconds, printed as q / 10^9, '.',
// and q % 10^9 in 9 digits: exact integer arithmetic in 128 bits.
// Longer times (over ~584 years) still go through std::to_chars, which
// the standard defines to produce the same "%.9f" text.
char* write_time(char* first, sim::Time time) {
  if (!std::isfinite(time) || std::signbit(time)) {
    util::raise("journal: time ", time, " is not finite and non-negative");
  }
  const auto bits = std::bit_cast<std::uint64_t>(time);
  const int biased = static_cast<int>(bits >> kMantissaBits);
  // Zero, the subnormals and every time below 2^-31 s, under half a
  // nanosecond, round to zero. This also keeps k below 84 in the shifts
  // below.
  if (biased < kExponentBias - 31) return copy(first, "0.000000000");
  // Below 2^35 s the normal t = m·2^-k with an implicit leading bit has
  // 18 <= k <= 83, so m·10^9 < 2^83 fits.
  if (biased < kExponentBias + 35) {
    const std::uint64_t m = (bits & (kImplicitBit - 1)) | kImplicitBit;
    const int k = kExponentBias + kMantissaBits - biased;
    const Wide scaled = Wide{m} * kNanosPerSecond;
    Wide q = scaled >> k;
    const Wide rest = scaled - (q << k);
    const Wide half = Wide{1} << (k - 1);
    if (rest > half || (rest == half && (q & 1) != 0)) ++q;
    if ((q >> 64) == 0) {
      const auto nanos = static_cast<std::uint64_t>(q);
      char* end = std::to_chars(first, first + kMaxTimeChars,
                                nanos / kNanosPerSecond)
                      .ptr;
      *end = '.';
      std::uint64_t fraction = nanos % kNanosPerSecond;
      for (int i = 9; i > 0; --i) {
        end[i] = static_cast<char>('0' + fraction % 10);
        fraction /= 10;
      }
      return end + 10;
    }
  }
  const auto [end, ec] = std::to_chars(first, first + kMaxTimeChars, time,
                                       std::chars_format::fixed, 9);
  if (ec == std::errc::value_too_large) {
    util::raise("journal: time ", time, " is too large to encode");
  }
  return end;
}

// One line under construction: the tag, then its fields in order, each
// either positional ("|value") or keyed ("|k=value"). Every value is
// validated and, for numbers and times, formatted into the builder's own
// buffer as it is added, so an error raises before write() touches the
// output line.
class LineBuilder {
 public:
  explicit LineBuilder(RecordType type)
      : tag_(wire_tag(type)),
        // The header keeps the checksum marker every version shares.
        marker_(type == RecordType::kHeader ? "|h=" : "|"),
        size_(tag_.size()) {}
  LineBuilder(const LineBuilder&) = delete;
  LineBuilder& operator=(const LineBuilder&) = delete;

  // A keyed text field.
  void text(std::string_view key, std::string_view value) {
    check_text(key, value);
    add(key, value);
  }

  // A positional text field; `name` labels the error.
  void positional_text(std::string_view name, std::string_view value) {
    check_text(name, value);
    add({}, value);
  }

  // A number; an empty `key` makes the field positional.
  template <std::integral Int>
  void integer(std::string_view key, Int value) {
    char* end = std::to_chars(free_, numbers_.data() + numbers_.size(), value)
                    .ptr;
    add(key, std::string_view(free_, static_cast<std::size_t>(end - free_)));
    free_ = end;
  }

  void timestamp(sim::Time time) {
    char* end = write_time(free_, time);
    add({}, std::string_view(free_, static_cast<std::size_t>(end - free_)));
    free_ = end;
  }

  void state(core::TaskState state) {
    *free_ = state_code(state);
    add({}, std::string_view(free_, 1));
    ++free_;
  }

  // Overwrites `line` with the record, the checksum marker, the checksum
  // of every byte before the hex digits, and '\n'.
  void write(std::string& line) const {
    static constexpr char kHex[] = "0123456789abcdef";
    const std::size_t covered = size_ + marker_.size();
    line.resize(covered + 9);
    char* p = copy(line.data(), tag_);
    for (std::size_t i = 0; i < count_; ++i) {
      *p++ = '|';
      if (!fields_[i].key.empty()) {
        p = copy(p, fields_[i].key);
        *p++ = '=';
      }
      p = copy(p, fields_[i].value);
    }
    p = copy(p, marker_);
    std::uint32_t sum = fnv1a32(std::string_view(line.data(), covered));
    for (int i = 7; i >= 0; --i) {
      p[i] = kHex[sum & 0xfu];
      sum >>= 4;
    }
    p[8] = '\n';
  }

 private:
  struct Field {
    std::string_view key;
    std::string_view value;
  };

  static void check_text(std::string_view name, std::string_view value) {
    for (const char c : value) {
      if (c == '|' || c == '\n') {
        util::raise("journal: field '", name,
                    "' contains a record delimiter: ", value);
      }
    }
  }

  void add(std::string_view key, std::string_view value) {
    fields_[count_++] = {key, value};
    // '|', and '=' after a key.
    size_ += key.size() + value.size() + (key.empty() ? 1 : 2);
  }

  std::string_view tag_;
  std::string_view marker_;
  std::array<Field, 5> fields_{};  // a task edge has the most: 5
  std::size_t count_ = 0;
  std::size_t size_;  // bytes before the checksum marker
  // Formatted numbers: at most one time and four 64-bit integers (20
  // characters each, sign included), or a state code in place of one.
  std::array<char, kMaxTimeChars + 4 * 20> numbers_;
  char* free_ = numbers_.data();
};

}  // namespace

// Fixed precision keeps the bytes stable across runs, and re-encoding a
// decoded time reproduces the same text (decimal -> nearest double -> same
// decimal).
void append_time(std::string& out, sim::Time time) {
  char buf[kMaxTimeChars];
  out.append(buf, write_time(buf, time));
}

void encode_transition(std::string& out, sim::Time time, core::TaskId task,
                       core::TaskState to, std::string_view backend,
                       std::int64_t attempt) {
  LineBuilder line(RecordType::kTransition);
  line.timestamp(time);
  line.integer({}, task);
  line.state(to);
  if (!backend.empty()) line.text("b", backend);
  if (attempt != 0) line.integer("a", attempt);
  line.write(out);
}

void encode_alloc(std::string& out, sim::Time time, std::int64_t node,
                  std::int64_t cores, std::int64_t gpus) {
  LineBuilder line(RecordType::kAlloc);
  line.timestamp(time);
  line.integer({}, node);
  line.integer({}, cores);
  if (gpus != 0) line.integer("g", gpus);
  line.write(out);
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

std::string_view wire_tag(RecordType type) {
  switch (type) {
    case RecordType::kHeader:
      return "journal";
    case RecordType::kReady:
      return "r";
    case RecordType::kTransition:
      return "t";
    case RecordType::kAlloc:
      return "a";
    case RecordType::kFault:
      return "f";
    case RecordType::kEnd:
      return "e";
  }
  return "?";
}

// One digit per state: kCanceled is the last one (core/task.hpp).
static_assert(static_cast<unsigned>(core::TaskState::kCanceled) <= 9,
              "a task state code is one decimal digit");

char state_code(core::TaskState state) {
  const auto ordinal = static_cast<unsigned>(state);
  if (ordinal > static_cast<unsigned>(core::TaskState::kCanceled)) {
    util::raise("journal: no code for task state ", ordinal);
  }
  return static_cast<char>('0' + ordinal);
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
  LineBuilder line(type);
  switch (type) {
    case RecordType::kHeader:
      line.integer("v", kVersion);
      line.integer("seed", seed);
      line.text("spec", spec);
      break;
    case RecordType::kReady:
      line.timestamp(time);
      break;
    case RecordType::kTransition:
      encode_transition(out, time, task, to, backend, attempt);
      return;
    case RecordType::kAlloc:
      encode_alloc(out, time, node, cores, gpus);
      return;
    case RecordType::kFault:
      line.timestamp(time);
      line.positional_text("kind", kind);
      line.integer({}, index);
      line.integer({}, count);
      if (!backend.empty()) line.text("b", backend);
      break;
    case RecordType::kEnd:
      line.timestamp(time);
      line.integer({}, done);
      line.integer({}, failed);
      line.integer({}, canceled);
      line.integer({}, events);
      break;
  }
  line.write(out);
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

Record transition_record(sim::Time time, core::TaskId task,
                         core::TaskState to, std::string backend,
                         std::int64_t attempt) {
  Record r;
  r.type = RecordType::kTransition;
  r.time = time;
  r.task = task;
  r.to = to;
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
