#include "journal/journal.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <utility>

namespace flotilla::journal {

namespace {

// Splits a line body "tag|p1|p2|..." at '|' into its tag and pieces.
void split_pieces(std::string_view body, std::string_view& tag,
                  std::vector<std::string_view>& pieces) {
  std::size_t bar = body.find('|');
  tag = body.substr(0, bar);
  pieces.clear();
  while (bar != std::string_view::npos) {
    const std::size_t next = body.find('|', bar + 1);
    pieces.push_back(body.substr(bar + 1, next == std::string_view::npos
                                              ? std::string_view::npos
                                              : next - bar - 1));
    bar = next;
  }
}

// Accepts only the form std::to_chars writes: no '+', no blank, no leading
// zero and no "-0", so anything decoded re-encodes to the same bytes.
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
// `record`. Enforces the canonical grammar (record.hpp) so that
// decode(encode(r)) round-trips and any hand-edited journal is rejected
// loudly: the tag's positional fields, then its optional keyed fields in
// order, each present only when it holds something other than its
// default. `pieces` is scratch space, reused across lines.
bool decode_body(std::string_view body, Record& record,
                 std::vector<std::string_view>& pieces, std::string& error) {
  std::string_view tag;
  split_pieces(body, tag, pieces);
  std::size_t next = 0;  // the piece to decode next
  const auto fail = [&](std::string message) {
    error = std::move(message);
    return false;
  };
  // A positional field.
  const auto take = [&](std::string_view name, std::string_view& value) {
    if (next >= pieces.size()) {
      return fail("missing field '" + std::string(name) + "'");
    }
    value = pieces[next++];
    return true;
  };
  const auto take_int = [&](std::string_view name, auto& out) {
    std::string_view v;
    if (!take(name, v)) return false;
    if (!parse_int(v, out)) {
      return fail("bad integer in field '" + std::string(name) + "'");
    }
    return true;
  };
  const auto take_time = [&] {
    std::string_view v;
    if (!take("time", v)) return false;
    if (!parse_time(v, record.time)) return fail("bad time");
    return true;
  };
  // A keyed field "key=value"; returns whether it is the next piece.
  // `keyed` sets `value` when it is.
  const auto keyed = [&](std::string_view key, std::string_view& value) {
    if (next >= pieces.size()) return false;
    const std::string_view piece = pieces[next];
    if (piece.size() <= key.size() || !piece.starts_with(key) ||
        piece[key.size()] != '=') {
      return false;
    }
    value = piece.substr(key.size() + 1);
    ++next;
    return true;
  };
  const auto expect_keyed = [&](std::string_view key,
                                std::string_view& value) {
    if (!keyed(key, value)) {
      return fail("expected field '" + std::string(key) + "'");
    }
    return true;
  };
  // An optional text field: absent means empty, so present must not be.
  const auto optional_text = [&](std::string_view key, std::string& out) {
    std::string_view v;
    out.clear();
    if (!keyed(key, v)) return true;
    if (v.empty()) return fail("field '" + std::string(key) + "' is empty");
    out.assign(v);
    return true;
  };
  // An optional integer: absent means zero, so present must not be.
  const auto optional_int = [&](std::string_view key, std::int64_t& out) {
    std::string_view v;
    out = 0;
    if (!keyed(key, v)) return true;
    if (!parse_int(v, out) || out == 0) {
      return fail("bad integer in field '" + std::string(key) + "'");
    }
    return true;
  };
  const auto finish = [&] {
    if (next != pieces.size()) {
      return fail("unexpected field in '" + std::string(tag) + "'");
    }
    return true;
  };

  std::string_view v;
  if (tag == wire_tag(RecordType::kHeader)) {
    record.type = RecordType::kHeader;
    std::int64_t version = 0;
    if (!expect_keyed("v", v)) return false;
    if (!parse_int(v, version)) return fail("bad journal version");
    if (version != kVersion) {
      return fail("unsupported journal version " + std::string(v) +
                  " (this build reads v=" + std::to_string(kVersion) + ")");
    }
    if (!expect_keyed("seed", v)) return false;
    if (!parse_int(v, record.seed)) return fail("bad seed");
    if (!expect_keyed("spec", v)) return false;
    record.spec.assign(v);
    return finish();
  }
  if (tag == wire_tag(RecordType::kReady)) {
    record.type = RecordType::kReady;
    return take_time() && finish();
  }
  if (tag == wire_tag(RecordType::kTransition)) {
    record.type = RecordType::kTransition;
    if (!take_time() || !take_int("task", record.task) || !take("to", v)) {
      return false;
    }
    if (v.size() != 1 || !is_digits(v)) return fail("bad task state code");
    record.to = static_cast<core::TaskState>(v[0] - '0');
    return optional_text("b", record.backend) &&
           optional_int("a", record.attempt) && finish();
  }
  if (tag == wire_tag(RecordType::kAlloc)) {
    record.type = RecordType::kAlloc;
    return take_time() && take_int("node", record.node) &&
           take_int("cores", record.cores) &&
           optional_int("g", record.gpus) && finish();
  }
  if (tag == wire_tag(RecordType::kFault)) {
    record.type = RecordType::kFault;
    if (!take_time() || !take("kind", v)) return false;
    record.kind.assign(v);
    return take_int("index", record.index) &&
           take_int("count", record.count) &&
           optional_text("b", record.backend) && finish();
  }
  if (tag == wire_tag(RecordType::kEnd)) {
    record.type = RecordType::kEnd;
    return take_time() && take_int("done", record.done) &&
           take_int("failed", record.failed) &&
           take_int("canceled", record.canceled) &&
           take_int("events", record.events) && finish();
  }
  return fail("unknown record tag '" + std::string(tag) + "'");
}

// Verifies and strips the trailing checksum field: "|" and 8 hex digits,
// or "|h=" and 8 hex digits on the header.
bool strip_checksum(std::string_view line, std::string_view& body,
                    std::string& error) {
  const std::string_view marker =
      line.starts_with("journal|") ? std::string_view("|h=") : "|";
  const std::size_t suffix = marker.size() + 8;
  if (line.size() < suffix ||
      line.substr(line.size() - suffix, marker.size()) != marker) {
    error = "missing checksum";
    return false;
  }
  body = line.substr(0, line.size() - suffix);
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
  // The checksum covers the line up to and including the marker.
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
  std::vector<std::string_view> pieces;
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
                    decode_body(body, record, pieces, error);
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
