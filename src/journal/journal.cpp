#include "journal/journal.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace flotilla::journal {

namespace {

// One key=value field split out of a line body.
struct Field {
  std::string_view key;
  std::string_view value;
};

// Splits "tag|k1=v1|k2=v2|...". Returns false on grammar violations
// (missing '=' in a field).
bool split_fields(std::string_view body, std::string_view& tag,
                  std::vector<Field>& fields) {
  const std::size_t bar = body.find('|');
  tag = body.substr(0, bar);
  fields.clear();
  std::string_view rest =
      bar == std::string_view::npos ? std::string_view{} : body.substr(bar + 1);
  while (!rest.empty()) {
    const std::size_t next = rest.find('|');
    const std::string_view piece = rest.substr(0, next);
    const std::size_t eq = piece.find('=');
    if (eq == std::string_view::npos) return false;
    fields.push_back({piece.substr(0, eq), piece.substr(eq + 1)});
    rest = next == std::string_view::npos ? std::string_view{}
                                          : rest.substr(next + 1);
  }
  return true;
}

// Accepts only the form std::to_chars writes: no leading zero and no "-0",
// so anything decoded re-encodes to the same bytes.
template <typename Int>
bool parse_int(std::string_view text, Int& out) {
  const std::string_view magnitude = text.substr(text.starts_with('-') ? 1 : 0);
  if (magnitude.starts_with('0') && text != "0") return false;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc{} && ptr == text.data() + text.size();
}

bool is_digits(std::string_view text) {
  return std::all_of(text.begin(), text.end(),
                     [](char c) { return c >= '0' && c <= '9'; });
}

// Accepts only the canonical form append_time() writes,
// (0|[1-9][0-9]*)\.[0-9]{9}: no sign, blanks, exponent, hex, nan or inf.
bool parse_time(std::string_view text, sim::Time& out) {
  constexpr std::size_t kFraction = 10;  // '.' + 9 decimals
  if (text.size() <= kFraction || text.size() > kMaxTimeChars) return false;
  const std::string_view whole = text.substr(0, text.size() - kFraction);
  if (text[whole.size()] != '.' || !is_digits(whole) ||
      !is_digits(text.substr(whole.size() + 1)) ||
      (whole.size() > 1 && whole.front() == '0')) {
    return false;
  }
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(
      text.data(), text.data() + text.size(), value, std::chars_format::fixed);
  if (ec != std::errc{} || ptr != text.data() + text.size() ||
      !std::isfinite(value)) {
    return false;
  }
  out = value;
  return true;
}

// Decodes one line body (checksum already stripped and verified) into
// `record`. Enforces the canonical field order so that decode(encode(r))
// round-trips and any hand-edited journal is rejected loudly. `fields` is
// scratch space, reused across lines.
bool decode_body(std::string_view body, Record& record,
                 std::vector<Field>& fields, std::string& error) {
  std::string_view tag;
  if (!split_fields(body, tag, fields)) {
    error = "malformed field (missing '=')";
    return false;
  }
  const auto expect = [&](std::size_t i, std::string_view key,
                          std::string_view& value) {
    if (i >= fields.size() || fields[i].key != key) {
      error = "expected field '" + std::string(key) + "'";
      return false;
    }
    value = fields[i].value;
    return true;
  };
  const auto expect_i64 = [&](std::size_t i, std::string_view key,
                              std::int64_t& out) {
    std::string_view v;
    if (!expect(i, key, v)) return false;
    if (!parse_int(v, out)) {
      error = "bad integer in field '" + std::string(key) + "'";
      return false;
    }
    return true;
  };
  const auto expect_time = [&](std::size_t i, sim::Time& out) {
    std::string_view v;
    if (!expect(i, "t", v)) return false;
    if (!parse_time(v, out)) {
      error = "bad time";
      return false;
    }
    return true;
  };
  const auto check_arity = [&](std::size_t n) {
    if (fields.size() != n) {
      error = "wrong field count for '" + std::string(tag) + "'";
      return false;
    }
    return true;
  };

  std::string_view v;
  if (tag == "journal") {
    record.type = RecordType::kHeader;
    if (!check_arity(3)) return false;
    if (!expect(0, "v", v)) return false;
    std::int64_t version = 0;
    if (!parse_int(v, version) || version != 1) {
      error = "unsupported journal version";
      return false;
    }
    if (!expect(1, "seed", v) || !parse_int(v, record.seed)) {
      error = error.empty() ? "bad seed" : error;
      return false;
    }
    if (!expect(2, "spec", v)) return false;
    record.spec.assign(v);
    return true;
  }
  if (tag == "ready") {
    record.type = RecordType::kReady;
    if (!check_arity(1)) return false;
    return expect_time(0, record.time);
  }
  if (tag == "task") {
    record.type = RecordType::kTransition;
    if (!check_arity(6)) return false;
    if (!expect_time(0, record.time)) return false;
    if (!expect(1, "uid", v)) return false;
    record.uid.assign(v);
    if (!expect(2, "from", v)) return false;
    record.from.assign(v);
    if (!expect(3, "to", v)) return false;
    record.to.assign(v);
    if (!expect(4, "backend", v)) return false;
    record.backend.assign(v);
    return expect_i64(5, "attempt", record.attempt);
  }
  if (tag == "alloc") {
    record.type = RecordType::kAlloc;
    if (!check_arity(4)) return false;
    return expect_time(0, record.time) &&
           expect_i64(1, "node", record.node) &&
           expect_i64(2, "cores", record.cores) &&
           expect_i64(3, "gpus", record.gpus);
  }
  if (tag == "fault") {
    record.type = RecordType::kFault;
    if (!check_arity(5)) return false;
    if (!expect_time(0, record.time)) return false;
    if (!expect(1, "kind", v)) return false;
    record.kind.assign(v);
    if (!expect(2, "backend", v)) return false;
    record.backend.assign(v);
    return expect_i64(3, "index", record.index) &&
           expect_i64(4, "count", record.count);
  }
  if (tag == "end") {
    record.type = RecordType::kEnd;
    if (!check_arity(5)) return false;
    if (!expect_time(0, record.time)) return false;
    if (!expect_i64(1, "done", record.done)) return false;
    if (!expect_i64(2, "failed", record.failed)) return false;
    if (!expect_i64(3, "canceled", record.canceled)) return false;
    if (!expect(4, "events", v) || !parse_int(v, record.events)) {
      error = error.empty() ? "bad event count" : error;
      return false;
    }
    return true;
  }
  error = "unknown record tag '" + std::string(tag) + "'";
  return false;
}

// Verifies and strips the trailing "|h=XXXXXXXX" checksum field.
bool strip_checksum(std::string_view line, std::string_view& body,
                    std::string& error) {
  constexpr std::size_t kSuffix = 11;  // "|h=" + 8 hex digits
  if (line.size() < kSuffix || line.substr(line.size() - kSuffix, 3) != "|h=") {
    error = "missing checksum";
    return false;
  }
  body = line.substr(0, line.size() - kSuffix);
  // Lowercase hex only, as the writer prints it.
  std::uint32_t stored = 0;
  for (const char c : line.substr(line.size() - 8)) {
    const bool digit = c >= '0' && c <= '9';
    if (!digit && (c < 'a' || c > 'f')) {
      error = "malformed checksum";
      return false;
    }
    stored = stored << 4 | static_cast<std::uint32_t>(digit ? c - '0'
                                                            : c - 'a' + 10);
  }
  // The checksum covers the line up to and including "|h=".
  const std::uint32_t expected = fnv1a32(line.substr(0, line.size() - 8));
  if (stored != expected) {
    error = "checksum mismatch";
    return false;
  }
  return true;
}

}  // namespace

ReadResult read(std::string_view bytes) {
  ReadResult out;
  // One slot per line, the torn tail included.
  out.records.reserve(
      static_cast<std::size_t>(std::count(bytes.begin(), bytes.end(), '\n')) +
      1);
  std::vector<Field> fields;
  std::string error;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const std::size_t nl = bytes.find('\n', pos);
    const bool is_tail = nl == std::string_view::npos;
    const std::string_view line =
        is_tail ? bytes.substr(pos) : bytes.substr(pos, nl - pos);
    std::string_view body;
    Record& record = out.records.emplace_back();
    const bool ok = strip_checksum(line, body, error) &&
                    decode_body(body, record, fields, error);
    if (!ok || is_tail) out.records.pop_back();
    if (!ok) {
      if (is_tail) {
        // Crash-mid-write artifact: tolerated, reported.
        out.truncated = true;
        out.truncated_bytes = line.size();
      } else {
        out.corrupt = true;
        out.corrupt_index = out.records.size();
        out.error = error;
      }
      return out;
    }
    if (is_tail) {
      // A line that decodes but lacks its '\n' still counts as torn: the
      // writer terminates every record, so the terminator itself is part
      // of the durable unit.
      out.truncated = true;
      out.truncated_bytes = line.size();
      return out;
    }
    pos = nl + 1;
  }
  return out;
}

}  // namespace flotilla::journal
