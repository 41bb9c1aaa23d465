#include "journal/journal.hpp"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>

#include "util/error.hpp"

namespace flotilla::journal {

namespace {

constexpr std::uint64_t kNanosPerSecond = 1'000'000'000;
// Below 2^53 ns a time's integer nanoseconds N and 10^9 are both exact
// doubles, so N / 1e9, correctly rounded, is the double nearest the
// decimal text: the from_chars result.
constexpr std::uint64_t kExactNanos = std::uint64_t{1} << 53;

bool is_digit(char c) { return c >= '0' && c <= '9'; }

// The '\n' bytes in `bytes`, 8 at a time: a byte of w = word ^ "\n\n..."
// is zero exactly where the word holds a '\n', and the high bit of each
// byte of ~((w & 0x7f..) + 0x7f.. | w | 0x7f..) is set exactly for the
// zero bytes of w.
std::size_t count_lines(std::string_view bytes) {
  constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7f;
  constexpr std::uint64_t kNewlines = 0x0a0a0a0a0a0a0a0a;
  std::size_t lines = 0;
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes.data() + i, 8);
    word ^= kNewlines;
    lines += static_cast<std::size_t>(
        std::popcount(~(((word & kLow7) + kLow7) | word | kLow7)));
  }
  for (; i < bytes.size(); ++i) lines += bytes[i] == '\n';
  return lines;
}

// Why a complete line was refused: the reader's label (journal.hpp) is
// before + name + after, assembled only for a refused line.
struct Refusal {
  std::string_view before;
  std::string_view name;
  std::string_view after;

  std::string label() const {
    std::string text(before);
    text += name;
    text += after;
    return text;
  }
};

// Decodes one line body left to right, once: every byte it passes is
// folded into the line's FNV-1a-32 checksum as the field it belongs to is
// decoded. Enforces the canonical grammar (record.hpp), so that
// decode(encode(r)) round-trips and any hand-edited journal is rejected
// loudly: the tag's positional fields ("|value"), then its optional keyed
// fields ("|k=value") in order, each present only when it holds something
// other than its default. A value runs to the next '|' or the end of the
// body and must be whole in its canonical form.
class BodyDecoder {
 public:
  explicit BodyDecoder(std::string_view body)
      : p_(body.data()), end_(body.data() + body.size()) {}

  // The checksum of the bytes decoded so far.
  std::uint32_t hash() const { return hash_; }
  const Refusal& refusal() const { return refusal_; }

  // Decodes the body into `record`; false, with refusal() set, when it is
  // not a canonical record. Each branch first assigns the union member of
  // its type, which makes it the live one, then decodes into its fields.
  bool decode(Record& record) {
    const std::string_view tag = token();
    if (tag == wire_tag(RecordType::kTransition)) {
      record.type = RecordType::kTransition;
      record.edge = {};
      return timestamp(record.time) && integer("task", record.edge.task) &&
             state(record.edge.to) && optional_text("b", record.backend) &&
             optional_integer("a", record.edge.attempt) && finish(tag);
    }
    if (tag == wire_tag(RecordType::kAlloc)) {
      record.type = RecordType::kAlloc;
      record.alloc = {};
      return timestamp(record.time) && integer("node", record.alloc.node) &&
             integer("cores", record.alloc.cores) &&
             optional_integer("g", record.alloc.gpus) && finish(tag);
    }
    if (tag == wire_tag(RecordType::kHeader)) {
      record.type = RecordType::kHeader;
      record.seed = 0;
      return header(record) && finish(tag);
    }
    if (tag == wire_tag(RecordType::kReady)) {
      record.type = RecordType::kReady;
      return timestamp(record.time) && finish(tag);
    }
    if (tag == wire_tag(RecordType::kFault)) {
      record.type = RecordType::kFault;
      record.fault = {};
      return timestamp(record.time) && text("kind", record.text) &&
             integer("index", record.fault.index) &&
             integer("count", record.fault.count) &&
             optional_text("b", record.backend) && finish(tag);
    }
    if (tag == wire_tag(RecordType::kEnd)) {
      record.type = RecordType::kEnd;
      record.end = {};
      return timestamp(record.time) && integer("done", record.end.done) &&
             integer("failed", record.end.failed) &&
             integer("canceled", record.end.canceled) &&
             integer("events", record.end.events) && finish(tag);
    }
    return refuse("unknown record tag '", tag, "'");
  }

 private:
  // ---------------------------------------------------------- fields

  bool timestamp(sim::Time& out) {
    if (!bar()) return refuse("missing field '", "time", "'");
    return canonical_time(out) || refuse("bad time");
  }

  template <typename Int>
  bool integer(std::string_view name, Int& out) {
    if (!bar()) return refuse("missing field '", name, "'");
    return canonical_integer(out) ||
           refuse("bad integer in field '", name, "'");
  }

  // A task state code: one digit.
  bool state(core::TaskState& out) {
    if (!bar()) return refuse("missing field '", "to", "'");
    if (p_ == end_ || !is_digit(*p_) || (p_ + 1 != end_ && p_[1] != '|')) {
      return refuse("bad task state code");
    }
    out = static_cast<core::TaskState>(take() - '0');
    return true;
  }

  // A positional text field, any text (empty included).
  bool text(std::string_view name, std::string& out) {
    if (!bar()) return refuse("missing field '", name, "'");
    out.assign(token());
    return true;
  }

  // An optional text field: absent means empty, so present must not be.
  bool optional_text(std::string_view key, std::string& out) {
    if (!keyed(key)) return true;
    const std::string_view value = token();
    if (value.empty()) return refuse("field '", key, "' is empty");
    out.assign(value);
    return true;
  }

  // An optional integer: absent means zero, so present must not be.
  bool optional_integer(std::string_view key, std::int64_t& out) {
    out = 0;
    if (!keyed(key)) return true;
    return (canonical_integer(out) && out != 0) ||
           refuse("bad integer in field '", key, "'");
  }

  bool header(Record& record) {
    if (!keyed("v")) return refuse("expected field '", "v", "'");
    const char* version = p_;
    std::int64_t number = 0;
    if (!canonical_integer(number)) return refuse("bad journal version");
    static_assert(kVersion == 2, "the label below names the version read");
    if (number != kVersion) {
      return refuse("unsupported journal version ",
                    std::string_view(version, static_cast<std::size_t>(
                                                  p_ - version)),
                    " (this build reads v=2)");
    }
    if (!keyed("seed")) return refuse("expected field '", "seed", "'");
    if (!canonical_integer(record.seed)) return refuse("bad seed");
    if (!keyed("spec")) return refuse("expected field '", "spec", "'");
    record.text.assign(token());
    return true;
  }

  bool finish(std::string_view tag) {
    return p_ == end_ || refuse("unexpected field in '", tag, "'");
  }

  bool refuse(std::string_view before, std::string_view name = {},
              std::string_view after = {}) {
    refusal_ = {before, name, after};
    return false;
  }

  // ----------------------------------------------------------- bytes

  char take() {
    const char c = *p_++;
    hash_ = fnv1a32_fold(hash_, c);
    return c;
  }

  bool at_field_end() const { return p_ == end_ || *p_ == '|'; }

  // Takes the '|' before a positional field; false at the end of the body.
  bool bar() {
    if (p_ == end_ || *p_ != '|') return false;
    take();
    return true;
  }

  // Takes "|key=" when it comes next.
  bool keyed(std::string_view key) {
    if (static_cast<std::size_t>(end_ - p_) <= key.size() + 1 || *p_ != '|' ||
        std::string_view(p_ + 1, key.size()) != key ||
        p_[key.size() + 1] != '=') {
      return false;
    }
    for (std::size_t i = 0; i < key.size() + 2; ++i) take();
    return true;
  }

  // Everything up to the next '|' or the end.
  std::string_view token() {
    const char* first = p_;
    const char* p = p_;
    std::uint32_t hash = hash_;
    for (; p != end_ && *p != '|'; ++p) hash = fnv1a32_fold(hash, *p);
    p_ = p;
    hash_ = hash;
    return {first, static_cast<std::size_t>(p - first)};
  }

  // Canonical decimal digits ("0" or no leading zero) into `out`; false
  // when there are none, a leading zero, or the value passes `limit`.
  // Takes every digit either way.
  bool digits(std::uint64_t& out, std::uint64_t limit) {
    const char* first = p_;
    const char* p = p_;
    std::uint32_t hash = hash_;
    bool fits = true;
    std::uint64_t value = 0;
    for (; p != end_ && is_digit(*p); ++p) {
      hash = fnv1a32_fold(hash, *p);
      const auto digit = static_cast<std::uint64_t>(*p - '0');
      fits = fits && value <= (limit - digit) / 10;
      value = value * 10 + digit;
    }
    p_ = p;
    hash_ = hash;
    out = value;
    const auto count = p - first;
    return fits && count > 0 && !(count > 1 && *first == '0');
  }

  // An integer as std::to_chars writes it: no '+', blank or leading zero,
  // no "-0", a '-' only on a signed type, within Int's range.
  template <typename Int>
  bool canonical_integer(Int& out) {
    using Unsigned = std::make_unsigned_t<Int>;
    bool negative = false;
    if constexpr (std::is_signed_v<Int>) {
      if (p_ != end_ && *p_ == '-') {
        take();
        negative = true;
      }
    }
    const auto max = static_cast<Unsigned>(std::numeric_limits<Int>::max());
    std::uint64_t magnitude = 0;
    if (!digits(magnitude, negative ? max + 1u : max) ||
        (negative && magnitude == 0) || !at_field_end()) {
      return false;
    }
    const auto value = static_cast<Unsigned>(magnitude);
    out = static_cast<Int>(negative ? 0 - value : value);
    return true;
  }

  // A time in the form append_time() writes, (0|[1-9][0-9]*)\.[0-9]{9},
  // at most kMaxTimeChars long and finite.
  bool canonical_time(sim::Time& out) {
    const char* first = p_;
    std::uint64_t seconds = 0;
    // An integer part past 2^64 is still valid text; from_chars reads it.
    const bool exact = digits(seconds, ~std::uint64_t{0});
    const auto whole = static_cast<std::size_t>(p_ - first);
    if (whole == 0 || (whole > 1 && *first == '0') || end_ - p_ < 10 ||
        *p_ != '.') {
      return false;
    }
    take();
    std::uint64_t fraction = 0;
    std::uint32_t hash = hash_;
    for (int i = 0; i < 9; ++i) {
      const char c = p_[i];
      if (!is_digit(c)) return false;
      hash = fnv1a32_fold(hash, c);
      fraction = fraction * 10 + static_cast<std::uint64_t>(c - '0');
    }
    p_ += 9;
    hash_ = hash;
    if (!at_field_end() || whole + 10 > kMaxTimeChars) return false;
    if (exact && seconds < kExactNanos / kNanosPerSecond) {
      const std::uint64_t nanos = seconds * kNanosPerSecond + fraction;
      if (nanos < kExactNanos) {
        out = static_cast<double>(nanos) / 1e9;
        return true;
      }
    }
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(first, p_, value, std::chars_format::fixed);
    if (ec != std::errc{} || ptr != p_ || !std::isfinite(value)) return false;
    out = value;
    return true;
  }

  const char* p_;
  const char* end_;
  std::uint32_t hash_ = kFnvOffset;
  Refusal refusal_;
};

// Decodes one complete line: its trailing checksum field ("|" and 8
// lowercase hex digits, or "|h=" and 8 on the header) first, then the
// body, whose decoding folds its bytes into the checksum the field must
// match. A damaged checksum is reported as such, whatever the body holds.
bool decode_line(std::string_view line, Record& record, std::string& failure) {
  const std::string_view marker =
      line.starts_with("journal|") ? std::string_view("|h=") : "|";
  const std::size_t suffix = marker.size() + 8;
  if (line.size() < suffix ||
      line.substr(line.size() - suffix, marker.size()) != marker) {
    failure = "missing checksum";
    return false;
  }
  std::uint32_t stored = 0;
  for (const char c : line.substr(line.size() - 8)) {
    const bool digit = is_digit(c);
    if (!digit && (c < 'a' || c > 'f')) {
      failure = "malformed checksum";
      return false;
    }
    stored = stored << 4 | static_cast<std::uint32_t>(digit ? c - '0'
                                                            : c - 'a' + 10);
  }
  BodyDecoder body(line.substr(0, line.size() - suffix));
  if (!body.decode(record)) {
    // The decoding stopped early: hash the whole covered span to tell a
    // damaged line from a well-checksummed malformed one.
    failure = fnv1a32(line.substr(0, line.size() - 8)) != stored
                  ? "checksum mismatch"
                  : body.refusal().label();
    return false;
  }
  // The checksum covers the line up to and including the marker.
  std::uint32_t hash = body.hash();
  for (const char c : marker) hash = fnv1a32_fold(hash, c);
  if (hash != stored) {
    failure = "checksum mismatch";
    return false;
  }
  return true;
}

}  // namespace

Writer::Segment& Writer::add_segment() {
  FLOT_CHECK(segments_used_ < kMaxSegments, "journal: ", size_,
             " bytes fill every segment");
  const std::size_t capacity = std::max(
      segments_used_ == 0 ? kFirstSegment
                          : 2 * segments_[segments_used_ - 1].capacity,
      line_.size());
  Segment& segment = segments_[segments_used_++];
  segment = {std::make_unique_for_overwrite<char[]>(capacity), capacity, 0};
  return segment;
}

std::string Writer::bytes() const {
  std::string bytes;
  bytes.reserve(size_);
  for (std::size_t i = 0; i < segments_used_; ++i) {
    bytes.append(segments_[i].data.get(), segments_[i].size);
  }
  return bytes;
}

ReadResult read(std::string_view bytes) {
  ReadResult out;
  // One slot per complete line; a torn tail is never decoded.
  out.records.reserve(count_lines(bytes));
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const std::size_t nl = bytes.find('\n', pos);
    if (nl == std::string_view::npos) {
      // Crash-mid-write artifact: tolerated, reported. A tail that would
      // decode counts as torn too: the writer terminates every record, so
      // the terminator itself is part of the durable unit.
      out.truncated = true;
      out.truncated_bytes = bytes.size() - pos;
      return out;
    }
    Record& record = out.records.emplace_back();
    if (!decode_line(bytes.substr(pos, nl - pos), record, out.error)) {
      out.records.pop_back();
      out.corrupt = true;
      out.corrupt_index = out.records.size();
      return out;
    }
    pos = nl + 1;
  }
  return out;
}

}  // namespace flotilla::journal
