// The journal's one encoder. A record type's fields are listed once, and
// encode_line() walks them twice: the first pass checks string fields for
// delimiters and adds up the line's size, the second sizes the
// caller-owned line once and writes each field straight into it, folding
// every byte into the FNV-1a-32 checksum as it goes, then appends the
// checksum in hex and '\n'. Optional fields (a task's backend and
// attempt, an alloc's GPUs, a fault's backend) are left out when they hold
// their default, empty or zero. Times go through an exact integer
// formatter (append_time) before either pass; integers through
// std::to_chars. Nothing here allocates once the line has the capacity of
// a record, which is why the writer and the scribe keep one and reuse it.
#include "journal/record.hpp"

#include <bit>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstring>
#include <system_error>
#include <type_traits>

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
      // The 9 decimals as two independent digit runs, 4 and 5 long.
      const auto fraction =
          static_cast<std::uint32_t>(nanos % kNanosPerSecond);
      std::uint32_t high = fraction / 100'000;
      std::uint32_t low = fraction % 100'000;
      for (int i = 4; i > 0; --i) {
        end[i] = static_cast<char>('0' + high % 10);
        high /= 10;
      }
      for (int i = 9; i > 4; --i) {
        end[i] = static_cast<char>('0' + low % 10);
        low /= 10;
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

// A formatted, checked time field, ready to be copied into a line.
struct TimeText {
  explicit TimeText(sim::Time time)
      : size(static_cast<std::size_t>(write_time(chars, time) - chars)) {}
  std::string_view view() const { return {chars, size}; }

  char chars[kMaxTimeChars];
  std::size_t size;
};

template <std::integral Int>
std::size_t decimal_width(Int value) {
  std::make_unsigned_t<Int> magnitude = value;
  std::size_t width = 1;
  if constexpr (std::is_signed_v<Int>) {
    if (value < 0) {
      magnitude = 0 - magnitude;
      ++width;
    }
  }
  for (; magnitude >= 10; magnitude /= 10) ++width;
  return width;
}

[[noreturn]] void raise_delimiter(std::string_view name,
                                  std::string_view value) {
  util::raise("journal: field '", name, "' contains a record delimiter: ",
              value);
}

void check_text(std::string_view name, std::string_view value) {
  for (const char c : value) {
    if (c == '|' || c == '\n') raise_delimiter(name, value);
  }
}

// A line's fields are listed once per record type, in a generic lambda
// that encode_line() runs twice: over a LineSize, which checks every field
// and adds up the bytes it takes without writing anything, then over a
// LinePut, which writes each field straight into the caller's line. The
// fields are the tag's positional ones ("|value") and its keyed ones
// ("|k=value"). Times and task state codes are formatted and checked
// before either pass, so nothing that can raise runs once the line is
// touched.
class LineSize {
 public:
  void timestamp(const TimeText& time) { bytes_ += 1 + time.size; }
  void state(char /*code*/) { bytes_ += 2; }
  template <std::integral Int>
  void integer(Int value) {
    bytes_ += 1 + decimal_width(value);
  }
  template <std::integral Int>
  void integer(std::string_view key, Int value) {
    bytes_ += 2 + key.size() + decimal_width(value);
  }
  // `name` labels the error.
  void positional_text(std::string_view name, std::string_view value) {
    check_text(name, value);
    bytes_ += 1 + value.size();
  }
  void text(std::string_view key, std::string_view value) {
    check_text(key, value);
    bytes_ += 2 + key.size() + value.size();
  }

  std::size_t bytes() const { return bytes_; }

 private:
  std::size_t bytes_ = 0;
};

// Where a line ends: after its checksum and '\n', as the journal holds it,
// or at the checksum marker. A line of this encoder's is a function of the
// bytes up to its marker, so comparing those compares the lines.
enum class Ending { kChecksummed, kAtMarker };

// Writes a line front to back into a buffer sized for it, folding every
// byte into the FNV-1a-32 checksum as it goes when the line is checksummed.
template <Ending kEnding>
class LinePut {
 public:
  // Writes the tag at `first`; the line ends at `last`.
  LinePut(char* first, char* last, std::string_view tag,
          std::string_view marker)
      : marker_(marker), p_(first), end_(last) {
    put(tag);
  }
  LinePut(const LinePut&) = delete;
  LinePut& operator=(const LinePut&) = delete;

  void timestamp(const TimeText& time) {
    put('|');
    put(time.view());
  }
  void state(char code) {
    put('|');
    put(code);
  }
  template <std::integral Int>
  void integer(Int value) {
    put('|');
    number(value);
  }
  template <std::integral Int>
  void integer(std::string_view key, Int value) {
    keyed(key);
    number(value);
  }
  void positional_text(std::string_view /*name*/, std::string_view value) {
    put('|');
    put(value);
  }
  void text(std::string_view key, std::string_view value) {
    keyed(key);
    put(value);
  }

  // The checksum marker, then, when checksummed, the checksum of every byte
  // before its hex digits, and '\n'.
  void finish() {
    put(marker_);
    if constexpr (kEnding == Ending::kChecksummed) {
      static constexpr char kHex[] = "0123456789abcdef";
      std::uint32_t sum = hash_;
      for (int i = 7; i >= 0; --i) {
        p_[i] = kHex[sum & 0xfu];
        sum >>= 4;
      }
      p_[8] = '\n';
    }
  }

 private:
  void put(char c) {
    *p_++ = c;
    if constexpr (kEnding == Ending::kChecksummed) {
      hash_ = fnv1a32_fold(hash_, c);
    }
  }
  void put(std::string_view text) {
    for (const char c : text) put(c);
  }
  void keyed(std::string_view key) {
    put('|');
    put(key);
    put('=');
  }
  template <std::integral Int>
  void number(Int value) {
    char* first = p_;
    p_ = std::to_chars(p_, end_, value).ptr;
    fold(first);
  }
  // Folds the bytes from `first` up to the cursor into the checksum.
  void fold(const char* first) {
    if constexpr (kEnding == Ending::kChecksummed) {
      for (; first != p_; ++first) hash_ = fnv1a32_fold(hash_, *first);
    }
  }

  std::string_view marker_;
  char* p_ = nullptr;
  char* end_ = nullptr;
  std::uint32_t hash_ = kFnvOffset;
};

// Overwrites `line` with the record whose fields `fields` lists (see
// LineSize): sized once for the tag, the fields, the checksum marker and,
// when checksummed, 8 hex digits and '\n'.
template <Ending kEnding, typename Fields>
void encode_line(std::string& line, RecordType type, const Fields& fields) {
  LineSize size;
  fields(size);
  const std::string_view tag = wire_tag(type);
  // The header keeps the checksum marker every version shares.
  const std::string_view marker = type == RecordType::kHeader ? "|h=" : "|";
  line.resize(tag.size() + size.bytes() + marker.size() +
              (kEnding == Ending::kChecksummed ? 9 : 0));
  LinePut<kEnding> put(line.data(), line.data() + line.size(), tag, marker);
  fields(put);
  put.finish();
}

template <Ending kEnding>
void transition_line(std::string& out, sim::Time time, core::TaskId task,
                     core::TaskState to, std::string_view backend,
                     std::int64_t attempt) {
  const TimeText at(time);
  const char code = state_code(to);
  encode_line<kEnding>(out, RecordType::kTransition, [&](auto& line) {
    line.timestamp(at);
    line.integer(task);
    line.state(code);
    if (!backend.empty()) line.text("b", backend);
    if (attempt != 0) line.integer("a", attempt);
  });
}

template <Ending kEnding>
void alloc_line(std::string& out, sim::Time time, std::int64_t node,
                std::int64_t cores, std::int64_t gpus) {
  const TimeText at(time);
  encode_line<kEnding>(out, RecordType::kAlloc, [&](auto& line) {
    line.timestamp(at);
    line.integer(node);
    line.integer(cores);
    if (gpus != 0) line.integer("g", gpus);
  });
}

template <Ending kEnding>
void record_line(const Record& r, std::string& out) {
  switch (r.type) {
    case RecordType::kHeader:
      encode_line<kEnding>(out, r.type, [&](auto& line) {
        line.integer("v", kVersion);
        line.integer("seed", r.seed);
        line.text("spec", r.text);
      });
      return;
    case RecordType::kReady: {
      const TimeText at(r.time);
      encode_line<kEnding>(out, r.type,
                           [&](auto& line) { line.timestamp(at); });
      return;
    }
    case RecordType::kTransition:
      transition_line<kEnding>(out, r.time, r.edge.task, r.edge.to,
                               r.backend, r.edge.attempt);
      return;
    case RecordType::kAlloc:
      alloc_line<kEnding>(out, r.time, r.alloc.node, r.alloc.cores,
                          r.alloc.gpus);
      return;
    case RecordType::kFault: {
      const TimeText at(r.time);
      encode_line<kEnding>(out, r.type, [&](auto& line) {
        line.timestamp(at);
        line.positional_text("kind", r.text);
        line.integer(r.fault.index);
        line.integer(r.fault.count);
        if (!r.backend.empty()) line.text("b", r.backend);
      });
      return;
    }
    case RecordType::kEnd: {
      const TimeText at(r.time);
      encode_line<kEnding>(out, r.type, [&](auto& line) {
        line.timestamp(at);
        line.integer(r.end.done);
        line.integer(r.end.failed);
        line.integer(r.end.canceled);
        line.integer(r.end.events);
      });
      return;
    }
  }
}

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
  transition_line<Ending::kChecksummed>(out, time, task, to, backend,
                                        attempt);
}

void encode_alloc(std::string& out, sim::Time time, std::int64_t node,
                  std::int64_t cores, std::int64_t gpus) {
  alloc_line<Ending::kChecksummed>(out, time, node, cores, gpus);
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
  std::uint32_t hash = kFnvOffset;
  for (const char c : text) hash = fnv1a32_fold(hash, c);
  return hash;
}

// A decoded journal prefix is held as Records, one per line.
static_assert(sizeof(Record) <= 112, "a Record stays compact");

void Record::encode_to(std::string& out) const {
  record_line<Ending::kChecksummed>(*this, out);
}

bool Record::encoded_as(std::string_view line, std::string& scratch) const {
  record_line<Ending::kAtMarker>(*this, scratch);
  // The 8 hex digits and '\n' after the marker follow from what precedes.
  return line.size() == scratch.size() + 9 && line.starts_with(scratch);
}

Record header_record(std::uint64_t seed, std::string spec) {
  Record r;
  r.type = RecordType::kHeader;
  r.seed = seed;
  r.text = std::move(spec);
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
  r.edge = {task, to, attempt};
  r.backend = std::move(backend);
  return r;
}

Record alloc_record(sim::Time time, std::int64_t node, std::int64_t cores,
                    std::int64_t gpus) {
  Record r;
  r.type = RecordType::kAlloc;
  r.time = time;
  r.alloc = {node, cores, gpus};
  return r;
}

Record fault_record(sim::Time time, std::string kind, std::string backend,
                    std::int64_t index, std::int64_t count) {
  Record r;
  r.type = RecordType::kFault;
  r.time = time;
  r.fault = {index, count};
  r.text = std::move(kind);
  r.backend = std::move(backend);
  return r;
}

Record end_record(sim::Time time, std::int64_t done, std::int64_t failed,
                  std::int64_t canceled, std::uint64_t events) {
  Record r;
  r.type = RecordType::kEnd;
  r.time = time;
  r.end = {done, failed, canceled, events};
  return r;
}

}  // namespace flotilla::journal
