// Tests for the durable event journal (src/journal/): byte-stable codec
// round-trips over seeded record streams, the integer time formatter pinned
// against printf "%.9f" over the whole encodable range, the field-level
// encoders against Record::encode, the strict time grammar, line-atomic
// appends, torn-tail vs corruption classification with record indices, the
// reader under seeded byte-level mutations of a real journal, golden and
// same-seed journal bytes of full runs, alloc records only for placed and
// released slices, StateImage folding, and the bounded crash-at-every-event
// sweep on a small fixed scenario (docs/recovery.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "check/runner.hpp"
#include "check/spec.hpp"
#include "core/session.hpp"
#include "core/task.hpp"
#include "journal/journal.hpp"
#include "journal/record.hpp"
#include "journal/recovery.hpp"
#include "journal/scribe.hpp"
#include "platform/cluster.hpp"
#include "sim/random.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace flotilla::journal {
namespace {

// Draws a random but valid record of any type — the property tests stream
// these through the codec.
Record random_record(sim::RngStream& rng) {
  const auto pick_name = [&](std::initializer_list<const char*> names) {
    auto it = names.begin();
    std::advance(it, rng.uniform_int(
                         0, static_cast<std::int64_t>(names.size()) - 1));
    return std::string(*it);
  };
  const sim::Time t = rng.uniform(0.0, 1e6);
  switch (rng.uniform_int(0, 5)) {
    case 0:
      return header_record(rng.next_u64(),
                           "seed=" + std::to_string(rng.uniform_int(1, 999)) +
                               ";nodes=4;tasks=16");
    case 1:
      return ready_record(t);
    case 2:
      return transition_record(
          t, static_cast<core::TaskId>(rng.uniform_int(0, 99999)),
          static_cast<core::TaskState>(
              rng.uniform_int(0, static_cast<int>(core::TaskState::kCanceled))),
          pick_name({"", "srun", "flux", "dragon", "prrte"}),
          rng.uniform_int(0, 5));
    case 3:
      return alloc_record(t, rng.uniform_int(0, 512),
                          rng.uniform_int(-64, 64), rng.uniform_int(-8, 8));
    case 4:
      return fault_record(t, pick_name({"crash", "cancel"}),
                          pick_name({"", "flux", "dragon"}),
                          rng.uniform_int(0, 7), rng.uniform_int(0, 100));
    default:
      return end_record(t, rng.uniform_int(0, 10000),
                        rng.uniform_int(0, 100), rng.uniform_int(0, 100),
                        rng.next_u64() % 1000000);
  }
}

std::string random_journal(std::uint64_t seed, int records) {
  sim::RngStream rng(seed, "journal.test");
  Writer writer;
  for (int i = 0; i < records; ++i) writer.append(random_record(rng));
  return writer.bytes();
}

// ------------------------------------------------------------------ codec

TEST(Codec, EncodeDecodeEncodeIsByteIdentical) {
  // The round-trip property over seeded random streams: decoding a journal
  // and re-encoding every record reproduces the input bytes exactly.
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const auto bytes = random_journal(seed, 40);
    const auto result = read(bytes);
    ASSERT_TRUE(result.intact()) << "seed " << seed << ": " << result.error;
    ASSERT_FALSE(result.truncated);
    ASSERT_EQ(result.records.size(), 40u);
    std::string reencoded;
    for (const auto& record : result.records) reencoded += record.encode();
    EXPECT_EQ(reencoded, bytes) << "seed " << seed;
  }
}

TEST(Codec, EncodingIsDeterministic) {
  EXPECT_EQ(random_journal(7, 64), random_journal(7, 64));
  EXPECT_NE(random_journal(7, 64), random_journal(8, 64));
}

TEST(Codec, ChecksumCoversEveryByteOfTheBody) {
  // Flipping any single body byte must fail the checksum.
  const auto line =
      transition_record(1.5, 1, core::TaskState::kDone, "flux", 0).encode();
  for (std::size_t i = 0; i + 10 < line.size(); ++i) {  // spare the checksum
    std::string damaged = line;
    damaged[i] = damaged[i] == 'x' ? 'y' : 'x';
    const auto result = read(damaged);
    EXPECT_TRUE(result.truncated || result.corrupt)
        << "flipped byte " << i << " went undetected";
    EXPECT_TRUE(result.records.empty());
  }
}

TEST(Codec, RejectsFieldSeparatorInValues) {
  EXPECT_THROW(
      transition_record(0.0, 0, core::TaskState::kDone, "flux|0", 0).encode(),
      util::Error);
  EXPECT_THROW(fault_record(0.0, "crash\n", "flux", 0, 0).encode(),
               util::Error);
  EXPECT_THROW(header_record(1, "spec\nwith-newline").encode(), util::Error);
}

TEST(Codec, TimesAreFixedPrecision) {
  // 9 fractional digits, so encode() is stable across platforms and
  // the recovery oracle can compare journals byte-for-byte.
  const auto line = ready_record(1.0 / 3.0).encode();
  EXPECT_EQ(line.rfind("r|0.333333333|", 0), 0u) << line;
}

// `body` closed with its checksum marker ("|h=" on a header, else "|"),
// the correct checksum and '\n', as the writer would.
std::string checksummed(const std::string& body) {
  const std::string marker = body.starts_with("journal|") ? "|h=" : "|";
  char sum[9];
  std::snprintf(sum, sizeof(sum), "%08x", fnv1a32(body + marker));
  return body + marker + sum + "\n";
}

// printf "%.9f" of `t`: the reference the codec's time form must match.
std::string printf_time(double t) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%.9f", t);
  return buf;
}

std::string codec_time(double t) {
  std::string out;
  append_time(out, t);
  return out;
}

bool encodable(double t) {
  try {
    codec_time(t);
    return true;
  } catch (const util::Error&) {
    return false;
  }
}

TEST(Codec, TimeFormMatchesPrintfFixedNine) {
  // Exact binary fractions k/2^n: for n = 10 every odd k is a tie at the
  // tenth decimal, so this pins the rounding of exact halves too.
  for (int n = 10; n <= 40; ++n) {
    const double scale = std::ldexp(1.0, -n);
    for (std::int64_t k = 1; k <= 4097; k += 2) {
      for (const std::int64_t m : {k, k * 1000003, k << 20}) {
        const double t = static_cast<double>(m) * scale;
        ASSERT_EQ(codec_time(t), printf_time(t)) << m << "/2^" << n;
      }
    }
  }
  sim::RngStream rng(2025, "journal.time_form");
  for (int i = 0; i < 100000; ++i) {
    const double t = rng.uniform(0.0, 1e7);
    ASSERT_EQ(codec_time(t), printf_time(t)) << std::hexfloat << t;
  }
  // The largest time the codec writes sits just below 1e54 (55 integer
  // digits would not fit kMaxTimeChars).
  double largest = 1e54;
  while (!encodable(largest)) largest = std::nextafter(largest, 0.0);
  EXPECT_FALSE(encodable(std::nextafter(largest, 1e300)));
  EXPECT_GT(largest, 9.99e53);
  for (const double t : {0.0, 1e-10, largest}) {
    EXPECT_EQ(codec_time(t), printf_time(t)) << t;
  }
  EXPECT_EQ(codec_time(largest).size(), kMaxTimeChars);

  // Random bit patterns: across the whole encodable range (most of them
  // tiny or huge), then within the integer formatter's domain, from 2^-32 s
  // up to 2^35 s, where its 128-bit rounding does the work.
  const auto bits_of = [](double t) { return std::bit_cast<std::uint64_t>(t); };
  const auto random_in = [&](double lo, double hi) {
    const auto first = static_cast<std::int64_t>(bits_of(lo));
    const auto last = static_cast<std::int64_t>(bits_of(hi));
    return std::bit_cast<double>(
        static_cast<std::uint64_t>(rng.uniform_int(first, last)));
  };
  for (int i = 0; i < 1000000; ++i) {
    const double t = random_in(0.0, largest);
    ASSERT_EQ(codec_time(t), printf_time(t)) << std::hexfloat << t;
  }
  for (int i = 0; i < 1000000; ++i) {
    const double t = random_in(0x1p-32, 0x1p35);
    ASSERT_EQ(codec_time(t), printf_time(t)) << std::hexfloat << t;
  }

  // Both sides of 2^64 ns, where the integer formatter hands over to
  // std::to_chars.
  const double split = 0x1p64 / 1e9;
  double below = split;
  double above = split;
  for (int i = 0; i < 64; ++i) {
    below = std::nextafter(below, 0.0);
    above = std::nextafter(above, 1e300);
    EXPECT_EQ(codec_time(below), printf_time(below)) << std::hexfloat << below;
    EXPECT_EQ(codec_time(above), printf_time(above)) << std::hexfloat << above;
  }
  EXPECT_EQ(codec_time(split), printf_time(split));

  // Subnormals, the smallest normals and the half-nanosecond boundary all
  // print as zero or the first nanosecond.
  const double min_normal = std::numeric_limits<double>::min();
  for (const double t :
       {std::numeric_limits<double>::denorm_min(),
        2 * std::numeric_limits<double>::denorm_min(),
        std::nextafter(min_normal, 0.0), min_normal / 3, min_normal,
        std::nextafter(min_normal, 1.0), 0x1p-31, std::nextafter(0x1p-31, 0.0),
        std::nextafter(5e-10, 0.0), 5e-10, std::nextafter(5e-10, 1.0),
        1.5e-9}) {
    EXPECT_EQ(codec_time(t), printf_time(t)) << std::hexfloat << t;
  }
  for (int i = 0; i < 10000; ++i) {
    const double t = random_in(0.0, std::nextafter(min_normal, 0.0));
    ASSERT_EQ(codec_time(t), "0.000000000") << std::hexfloat << t;
  }

  // Rounding that carries into the integer part.
  EXPECT_EQ(codec_time(0.9999999996), "1.000000000");
  EXPECT_EQ(codec_time(9.9999999999), "10.000000000");
  EXPECT_EQ(codec_time(999999.9999999999), "1000000.000000000");
  for (const double t : {0.9999999996, 0.9999999995, 0.9999999994,
                         99.99999999951, 4294967295.9999999995}) {
    EXPECT_EQ(codec_time(t), printf_time(t)) << std::hexfloat << t;
  }
}

TEST(Codec, RejectsTimesTheReaderCouldNotDecode) {
  for (const double t : {-1.0, -0.0, std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN(), 1e54,
                         1e300}) {
    EXPECT_THROW(ready_record(t).encode(), util::Error) << t;
  }
}

TEST(Codec, FieldEncoderMatchesTheRecordEncoding) {
  std::string line = "stale bytes from an earlier, longer record";
  encode_transition(line, 2.25, 7, core::TaskState::kDone, "flux", 3);
  EXPECT_EQ(line,
            transition_record(2.25, 7, core::TaskState::kDone, "flux", 3)
                .encode());
  EXPECT_EQ(line, checksummed("t|2.250000000|7|7|b=flux|a=3"));
}

TEST(Codec, TaskEdgesCarryIdAndStateCodeAndOmitDefaults) {
  // The state code is the state's ordinal as one digit; the backend and
  // the attempt are written only when non-empty or non-zero. The first
  // line is the worked example of docs/recovery.md, checksum included.
  EXPECT_EQ(transition_record(62.267854373, 100, core::TaskState::kRunning,
                              "dragon", 1)
                .encode(),
            "t|62.267854373|100|5|b=dragon|a=1|582eaabb\n");
  EXPECT_EQ(
      transition_record(0.5, 0, core::TaskState::kTmgrScheduling, "", 0)
          .encode(),
      checksummed("t|0.500000000|0|1"));
  EXPECT_EQ(
      transition_record(0.5, 4294967295u, core::TaskState::kCanceled, "", 2)
          .encode(),
      checksummed("t|0.500000000|4294967295|9|a=2"));
  EXPECT_EQ(alloc_record(1.0, 3, -56, 0).encode(),
            checksummed("a|1.000000000|3|-56"));
  EXPECT_EQ(alloc_record(1.0, 3, 0, -8).encode(),
            checksummed("a|1.000000000|3|0|g=-8"));
  EXPECT_EQ(fault_record(1.0, "cancel", "", 0, 3).encode(),
            checksummed("f|1.000000000|cancel|0|3"));
  EXPECT_EQ(state_code(core::TaskState::kNew), '0');
  EXPECT_EQ(state_code(core::TaskState::kAgentScheduling), '3');
  EXPECT_EQ(state_code(core::TaskState::kCanceled), '9');
  EXPECT_THROW(state_code(static_cast<core::TaskState>(10)), util::Error);
}

TEST(Codec, AllocEncoderMatchesTheRecordEncoding) {
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  const struct {
    double time;
    std::int64_t node, cores, gpus;
  } cases[] = {
      {2.25, 7, -56, -8},     {2.5, 7, 56, 8},
      {0.0, 0, 0, 0},         {1e6, 9407, -1, 0},
      {3.0, kMin, kMax, kMin}, {4.0, kMax, kMin, kMax},
  };
  for (const auto& c : cases) {
    std::string line(200, 'x');  // stale bytes from an earlier, longer line
    encode_alloc(line, c.time, c.node, c.cores, c.gpus);
    EXPECT_EQ(line, alloc_record(c.time, c.node, c.cores, c.gpus).encode());
  }
  EXPECT_EQ(alloc_record(3.0, kMin, kMax, 0).encode(),
            checksummed("a|3.000000000|-9223372036854775808"
                        "|9223372036854775807"));

  // Every Writer append writes exactly Record::encode(), one record after
  // another, whichever entry point encodes it.
  const std::vector<Record> records = {
      header_record(std::numeric_limits<std::uint64_t>::max(), "seed=1;x=y"),
      ready_record(0.5),
      transition_record(1.25, 1, core::TaskState::kTmgrScheduling, "", 0),
      alloc_record(1.25, 3, -4, -1),
      fault_record(2.0, "crash", "flux", 1, 0),
      end_record(9.75, kMax, 0, kMin, std::numeric_limits<std::uint64_t>::max()),
  };
  EXPECT_EQ(records[0].encode(),
            checksummed("journal|v=2|seed=18446744073709551615"
                        "|spec=seed=1;x=y"));
  EXPECT_EQ(records[4].encode(),
            checksummed("f|2.000000000|crash|1|0|b=flux"));
  EXPECT_EQ(records[5].encode(),
            checksummed("e|9.750000000|9223372036854775807|0"
                        "|-9223372036854775808|18446744073709551615"));
  Writer writer;
  std::string expected;
  for (const auto& r : records) {
    EXPECT_EQ(writer.append(r), r.encode());
    expected += r.encode();
  }
  const auto& edge = records[2];
  EXPECT_EQ(writer.append_transition(edge.time, edge.edge.task, edge.edge.to,
                                     edge.backend, edge.edge.attempt),
            edge.encode());
  const auto& alloc = records[3];
  EXPECT_EQ(writer.append_alloc(alloc.time, alloc.alloc.node,
                                alloc.alloc.cores, alloc.alloc.gpus),
            alloc.encode());
  expected += edge.encode() + alloc.encode();
  EXPECT_EQ(writer.bytes(), expected);
  EXPECT_EQ(writer.records(), records.size() + 2);
}

TEST(Writer, AppendIsLineAtomic) {
  Writer writer;
  writer.append(ready_record(1.0));
  const std::string before = writer.bytes();
  EXPECT_THROW(writer.append(transition_record(2.0, 0, core::TaskState::kDone,
                                                "flux|0", 0)),
               util::Error);
  EXPECT_THROW(
      writer.append_transition(2.0, 0, core::TaskState::kDone, "flux|0", 0),
      util::Error);
  EXPECT_EQ(writer.bytes(), before);
  EXPECT_EQ(writer.records(), 1u);
  // The next good record lands right after the last good one.
  writer.append(ready_record(3.0));
  EXPECT_EQ(writer.bytes(), before + ready_record(3.0).encode());
}

TEST(Scribe, TransitionWithADelimiterInTheBackendIsLineAtomic) {
  core::Session session{platform::frontier_spec(), 2, 42};
  const core::Task::Context context(session.labels());
  core::Task bad(0, core::TaskDescription{}, context);
  bad.set_backend(session.labels().intern("flux|0"));
  core::Task good(0, core::TaskDescription{}, context);
  // Validate mode, with a prefix that the good edge matches. The scribe
  // borrows the prefix, so it is a named vector that outlives the scribe.
  const std::vector<Record> prefix = {
      transition_record(0.0, 0, core::TaskState::kTmgrScheduling, "", 0)};
  Scribe scribe(session, prefix);
  EXPECT_THROW(scribe.transition(bad, core::TaskState::kNew,
                                 core::TaskState::kTmgrScheduling),
               util::Error);
  EXPECT_TRUE(scribe.writer().bytes().empty());
  EXPECT_EQ(scribe.records(), 0u);
  EXPECT_EQ(scribe.cursor(), 0u);
  scribe.transition(good, core::TaskState::kNew,
                    core::TaskState::kTmgrScheduling);
  EXPECT_EQ(scribe.records(), 1u);
  EXPECT_EQ(scribe.cursor(), 1u);
  EXPECT_FALSE(scribe.diverged());
  EXPECT_TRUE(scribe.replay_complete());
}

// Validation compares each emitted line with the prefix's record up to the
// checksum marker; a difference in any field, the last one included, is a
// divergence at its index that carries both whole lines.
TEST(Scribe, ValidationReportsTheFirstRecordThatDiffers) {
  const std::vector<Record> emitted = {header_record(7, "seed=7;x=1"),
                                       ready_record(0.0),
                                       end_record(0.0, 1, 0, 0, 5)};
  const std::vector<std::pair<std::size_t, Record>> changes = {
      {0, header_record(8, "seed=7;x=1")},
      {0, header_record(7, "seed=7;x=2")},
      {1, ready_record(1e-9)},
      {1, end_record(0.0, 1, 0, 0, 5)},
      {2, end_record(0.0, 1, 0, 0, 6)},
      {2, end_record(0.0, 1, 0, 0, 50)},
      {2, fault_record(0.0, "cancel", "", 0, 5)},
  };
  for (const auto& [index, changed] : changes) {
    core::Session session{platform::frontier_spec(), 2, 42};
    std::vector<Record> prefix = emitted;
    prefix[index] = changed;
    Scribe scribe(session, prefix);
    scribe.record_header(7, "seed=7;x=1");
    scribe.record_ready();
    scribe.record_end(1, 0, 0, 5);
    ASSERT_TRUE(scribe.diverged()) << changed.encode();
    EXPECT_EQ(scribe.divergence().index, index);
    EXPECT_EQ(scribe.divergence().expected, changed.encode());
    EXPECT_EQ(scribe.divergence().got, emitted[index].encode());
  }
  core::Session session{platform::frontier_spec(), 2, 42};
  Scribe scribe(session, emitted);
  scribe.record_header(7, "seed=7;x=1");
  scribe.record_ready();
  scribe.record_end(1, 0, 0, 5);
  EXPECT_FALSE(scribe.diverged());
  EXPECT_TRUE(scribe.replay_complete());
}

// ------------------------------------------------- torn tail vs corruption

TEST(Reader, TruncatedTailIsToleratedAndReported) {
  const auto bytes = random_journal(3, 20);
  // Chop at every byte boundary: the reader must return the intact prefix
  // and report the partial tail, never a hard corruption.
  for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
    if (bytes[cut - 1] == '\n') continue;  // clean prefix, nothing torn
    const auto result = read(bytes.substr(0, cut));
    EXPECT_TRUE(result.intact());
    EXPECT_TRUE(result.truncated);
    const auto intact_lines = static_cast<std::size_t>(std::count(
        bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut),
        '\n'));
    EXPECT_EQ(result.records.size(), intact_lines) << "cut at " << cut;
    EXPECT_GT(result.truncated_bytes, 0u);
  }
}

TEST(Reader, CleanPrefixHasNoTruncation) {
  const auto bytes = random_journal(4, 10);
  const auto nl = bytes.find('\n');
  const auto result = read(bytes.substr(0, nl + 1));
  EXPECT_TRUE(result.intact());
  EXPECT_FALSE(result.truncated);
  EXPECT_EQ(result.records.size(), 1u);
}

TEST(Reader, MidStreamCorruptionIsAHardErrorWithTheRecordIndex) {
  const auto bytes = random_journal(5, 12);
  // Damage a byte inside the fourth line (index 3) — not the tail.
  std::size_t pos = 0;
  for (int line = 0; line < 3; ++line) pos = bytes.find('\n', pos) + 1;
  std::string damaged = bytes;
  damaged[pos + 1] = damaged[pos + 1] == 'x' ? 'y' : 'x';
  const auto result = read(damaged);
  EXPECT_TRUE(result.corrupt);
  EXPECT_EQ(result.corrupt_index, 3u);
  EXPECT_EQ(result.records.size(), 3u);
  EXPECT_FALSE(result.error.empty());
}

TEST(Reader, DecodableFinalLineWithoutNewlineCountsAsTorn) {
  // The '\n' terminator is part of the durable unit: a record whose bytes
  // all made it to disk except the terminator is still a torn write.
  auto bytes = random_journal(6, 5);
  bytes.pop_back();  // drop the final '\n'
  const auto result = read(bytes);
  EXPECT_TRUE(result.intact());
  EXPECT_TRUE(result.truncated);
  EXPECT_EQ(result.records.size(), 4u);
}

TEST(Reader, DecodesTimesAsTheCorrectlyRoundedDouble) {
  // A canonical time text decodes to the double strtod rounds it to,
  // including texts the encoder would not write for any double (most
  // 9-decimal fractions are not the shortest form of one).
  sim::RngStream rng(77, "journal.time_decode");
  const auto decoded = [](const std::string& text) {
    const auto result = read(checksummed("r|" + text));
    EXPECT_TRUE(result.intact()) << text << ": " << result.error;
    return result.records.empty() ? -1.0 : result.records[0].time;
  };
  for (int i = 0; i < 20000; ++i) {
    const std::int64_t whole =
        i % 4 == 0 ? rng.uniform_int(0, 99)
                   : rng.uniform_int(0, i % 2 ? 999999 : 99999999999);
    char text[40];
    std::snprintf(text, sizeof(text), "%lld.%09lld",
                  static_cast<long long>(whole),
                  static_cast<long long>(rng.uniform_int(0, 999999999)));
    ASSERT_EQ(decoded(text), std::strtod(text, nullptr)) << text;
  }
  for (const char* text :
       {"0.000000000", "0.000000001", "999999.999999999", "1000000.000000000",
        "9007199.254740993", "0.500000000", "123456.000000001"}) {
    EXPECT_EQ(decoded(text), std::strtod(text, nullptr)) << text;
  }
}

TEST(Reader, RejectsNonCanonicalTimesAsCorruption) {
  // Each bad time sits in a line whose checksum is right, between two good
  // records, so only the time grammar can reject it.
  const std::string good = ready_record(1.0).encode();
  ASSERT_EQ(checksummed("r|1.000000000"), good);
  for (const char* t :
       {"1.5x", " 1.5", "+1.5", "nan", "inf", "0x1p3", "1.5", "-1.500000000",
        "+1.500000000", " 1.500000000", "1.500000000 ", "1.50000000x",
        "01.500000000", "1.5000000000", "1e3", "1.500000000e0", ".500000000",
        "1,500000000", "nan.000000000", "inf.000000000", "0x1.000000000", ""}) {
    const auto result =
        read(good + checksummed(std::string("r|") + t) + good);
    EXPECT_TRUE(result.corrupt) << "'" << t << "'";
    EXPECT_EQ(result.corrupt_index, 1u) << "'" << t << "'";
    EXPECT_EQ(result.error, "bad time") << "'" << t << "'";
  }
  // The canonical forms at both ends of the range are accepted.
  const auto edges = read(checksummed("r|0.000000000") +
                          checksummed("r|" + codec_time(9.9e53)));
  EXPECT_TRUE(edges.intact()) << edges.error;
  EXPECT_EQ(edges.records.size(), 2u);
}

TEST(Reader, RejectsNonCanonicalIntegersAndChecksumsAsCorruption) {
  // Each line checksums correctly but is not what the writer prints, so
  // accepting it would return a record that re-encodes to other bytes.
  const std::string good = ready_record(1.0).encode();
  const std::string edge = "t|1.000000000|0|7|b=flux|a=";
  ASSERT_EQ(checksummed(edge + "1"),
            transition_record(1.0, 0, core::TaskState::kDone, "flux", 1)
                .encode());
  // A written default ("a=0") is not canonical either: the writer omits it.
  for (const char* attempt :
       {"0", "00", "01", "-0", "-01", "+1", " 1", "1 ", ""}) {
    const auto result = read(good + checksummed(edge + attempt) + good);
    EXPECT_TRUE(result.corrupt) << "'" << attempt << "'";
    EXPECT_EQ(result.corrupt_index, 1u) << "'" << attempt << "'";
  }
  // Task ids, state codes, and optional fields out of their grammar.
  for (const char* body : {
           "t|1.000000000|00|7", "t|1.000000000|-1|7", "t|1.000000000|+1|7",
           "t|1.000000000|4294967296|7", "t|1.000000000|task.0|7",
           "t|1.000000000|0|", "t|1.000000000|0|10", "t|1.000000000|0|a",
           "t|1.000000000|0|:", "t|1.000000000|0", "t|1.000000000|0|7|b=",
           "t|1.000000000|0|7|a=1|b=flux", "t|1.000000000|0|7|b=flux|b=srun",
           "t|1.000000000|0|7|x=1", "t|1.000000000|0|7|a=1|a=1",
           "a|1.000000000|0|-1|g=0", "a|1.000000000|0|-1|0",
           "a|1.000000000|0", "f|1.000000000|cancel|0|3|b=",
           "e|1.000000000|1|0|0", "r|1.000000000|x",
           "task|t=1.000000000|uid=task.0|from=NEW|to=DONE|backend=|attempt=0",
       }) {
    const auto result = read(good + checksummed(body) + good);
    EXPECT_TRUE(result.corrupt) << "'" << body << "'";
    EXPECT_EQ(result.corrupt_index, 1u) << "'" << body << "'";
  }
  const auto seed = read(checksummed("journal|v=2|seed=042|spec=x") + good);
  EXPECT_TRUE(seed.corrupt);
  EXPECT_EQ(seed.corrupt_index, 0u);

  std::string upper = good;
  for (auto it = upper.end() - 9; it != upper.end() - 1; ++it) {
    *it = static_cast<char>(std::toupper(static_cast<unsigned char>(*it)));
  }
  ASSERT_NE(upper, good) << "checksum has no hex letter to change";
  const auto result = read(good + upper + good);
  EXPECT_TRUE(result.corrupt);
  EXPECT_EQ(result.corrupt_index, 1u);
  EXPECT_EQ(result.error, "malformed checksum");
}

TEST(Reader, RefusesOtherJournalVersionsByTheirHeader) {
  // Every version shares the header's shape, so a journal of another
  // version is refused by its label, not as a checksum or grammar error.
  const std::string v1 =
      checksummed("journal|v=1|seed=42|spec=x") +
      "task|t=1.000000000|uid=task.000000|from=NEW|to=TMGR_SCHEDULING"
      "|backend=|attempt=0|h=00000000\n";
  const auto result = read(v1);
  EXPECT_TRUE(result.corrupt);
  EXPECT_EQ(result.corrupt_index, 0u);
  EXPECT_TRUE(result.records.empty());
  EXPECT_EQ(result.error,
            "unsupported journal version 1 (this build reads v=2)");
  for (const char* version : {"0", "3", "-2", "18446744073709551616"}) {
    const auto other = read(checksummed(std::string("journal|v=") + version +
                                        "|seed=42|spec=x"));
    EXPECT_TRUE(other.corrupt) << version;
    EXPECT_NE(other.error.find("journal version"), std::string::npos)
        << version << ": " << other.error;
  }
  try {
    RecoveryManager rm(v1);
    FAIL() << "v1 journal accepted";
  } catch (const util::Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "journal: corrupt record #0: unsupported journal version 1 "
              "(this build reads v=2)");
  }
}

// -------------------------------------------------------- recovery manager

TEST(RecoveryManager, ImageRebuildsEachEdgesFromStateFromThePreviousEdge) {
  using core::TaskState;
  // Interleaved tasks, a retry edge, and an id far beyond the others: after
  // each edge, the task's image holds the state that edge entered and the
  // one its previous edge entered.
  const core::TaskId far = 4000000000u;
  const std::vector<Record> edges = {
      transition_record(1.0, 3, TaskState::kTmgrScheduling, "", 0),
      transition_record(1.0, far, TaskState::kTmgrScheduling, "", 0),
      transition_record(1.5, 3, TaskState::kAgentScheduling, "", 0),
      transition_record(2.0, 0, TaskState::kTmgrScheduling, "", 0),
      transition_record(2.5, 3, TaskState::kExecutorPending, "", 0),
      transition_record(3.0, 3, TaskState::kRunning, "flux", 1),
      transition_record(3.0, far, TaskState::kCanceled, "", 0),
      transition_record(3.5, 3, TaskState::kAgentScheduling, "flux", 1),
      transition_record(4.0, 3, TaskState::kExecutorPending, "flux", 1),
  };
  const TaskState from[] = {
      TaskState::kNew,             TaskState::kNew,
      TaskState::kTmgrScheduling,  TaskState::kNew,
      TaskState::kAgentScheduling, TaskState::kExecutorPending,
      TaskState::kTmgrScheduling,  TaskState::kRunning,
      TaskState::kAgentScheduling,
  };
  Writer writer;
  writer.append(header_record(1, "seed=1"));
  for (std::size_t i = 0; i < edges.size(); ++i) {
    writer.append(edges[i]);
    const auto image = RecoveryManager(writer.bytes()).image();
    const auto& task = image.tasks.at(edges[i].edge.task);
    EXPECT_EQ(task.state, edges[i].edge.to) << i;
    EXPECT_EQ(task.from, from[i]) << i;
  }
}

TEST(RecoveryManager, RaisesOnCorruptionWithTheRecordIndex) {
  Writer writer;
  writer.append(header_record(42, "seed=42"));
  writer.append(ready_record(1.0));
  writer.append(end_record(2.0, 1, 0, 0, 10));
  auto bytes = writer.bytes();
  const auto pos = bytes.find('\n') + 2;  // inside record #1
  bytes[pos] = bytes[pos] == 'x' ? 'y' : 'x';
  try {
    RecoveryManager rm(bytes);
    FAIL() << "corrupt journal accepted";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("#1"), std::string::npos)
        << e.what();
  }
}

TEST(RecoveryManager, RaisesWhenTheFirstRecordIsNotAHeader) {
  Writer writer;
  writer.append(ready_record(1.0));
  EXPECT_THROW(RecoveryManager rm(writer.bytes()), util::Error);
  EXPECT_THROW(RecoveryManager rm(""), util::Error);
}

TEST(RecoveryManager, FoldsThePrefixIntoAStateImage) {
  Writer writer;
  writer.append(header_record(9, "seed=9"));
  writer.append(ready_record(5.0));
  writer.append(alloc_record(5.0, 2, -4, -1));
  writer.append(
      transition_record(5.0, 0, core::TaskState::kTmgrScheduling, "", 0));
  writer.append(
      transition_record(6.0, 0, core::TaskState::kDone, "flux", 1));
  writer.append(
      transition_record(6.0, 1, core::TaskState::kTmgrScheduling, "", 0));
  writer.append(fault_record(7.0, "cancel", "", 0, 3));
  writer.append(alloc_record(7.5, 2, 4, 1));

  const RecoveryManager rm(writer.bytes());
  EXPECT_EQ(rm.seed(), 9u);
  EXPECT_EQ(rm.spec_line(), "seed=9");
  EXPECT_FALSE(rm.truncated());
  EXPECT_EQ(rm.prefix().size(), 8u);

  const auto image = rm.image();
  EXPECT_TRUE(image.ready);
  EXPECT_EQ(image.ready_time, 5.0);
  EXPECT_EQ(image.faults, 1u);
  EXPECT_FALSE(image.ended);
  EXPECT_EQ(image.last_time, 7.5);
  ASSERT_EQ(image.tasks.size(), 2u);
  EXPECT_EQ(image.tasks.at(0).state, core::TaskState::kDone);
  EXPECT_EQ(image.tasks.at(0).from, core::TaskState::kTmgrScheduling);
  EXPECT_EQ(image.tasks.at(0).backend, "flux");
  EXPECT_EQ(image.tasks.at(0).attempt, 1);
  EXPECT_EQ(image.tasks.at(0).terminal_edges, 1);
  EXPECT_EQ(image.tasks.at(1).state, core::TaskState::kTmgrScheduling);
  EXPECT_EQ(image.tasks_in_flight(), 1u);
  // The node 2 allocation was released: net delta zero.
  EXPECT_EQ(image.core_delta.at(2), 0);
  EXPECT_EQ(image.gpu_delta.at(2), 0);
}

// ---------------------------------------------- full-run byte determinism

check::ScenarioSpec small_spec() {
  check::ScenarioSpec spec;
  spec.seed = 13;
  spec.nodes = 2;
  spec.backends = {{"srun"}};
  spec.workload = "sleep";
  spec.tasks = 5;
  spec.duration = 2.0;
  return spec;
}

TEST(Journal, SameSeedRunsProduceByteIdenticalJournals) {
  check::RunOptions opts;
  opts.journal = true;
  const auto first = check::run_scenario(small_spec(), opts);
  const auto second = check::run_scenario(small_spec(), opts);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.journal.empty());
  EXPECT_EQ(first.journal, second.journal);
  // And the journal is structurally sound: header first, end record last.
  const auto parsed = read(first.journal);
  ASSERT_TRUE(parsed.intact());
  EXPECT_FALSE(parsed.truncated);
  EXPECT_EQ(parsed.records.front().type, RecordType::kHeader);
  EXPECT_EQ(parsed.records.back().type, RecordType::kEnd);
  EXPECT_EQ(parsed.records.back().end.done, 5);
}

TEST(Journal, GoldenJournalBytesOfFixedCampaigns) {
  // Same-seed identity alone would not notice a codec change that moves
  // every run's bytes the same way. The lengths and digests are of the v=2
  // journals, which transcribe the v=1 journals these campaigns wrote
  // before it record for record (uid to id, state names to codes, `from`
  // and default fields dropped); the codec must keep producing exactly
  // those bytes. ("dragon mixed" is the hetero workload on dragon, which
  // mixes executable and function tasks; "dragon ingress" offers its tasks
  // through 1,000 open-loop clients.)
  struct Golden {
    const char* name;
    check::ScenarioSpec spec;
    std::size_t bytes;
    std::uint64_t digest;
  };
  const auto campaign = [](std::vector<core::BackendSpec> backends,
                           const char* workload, int tasks) {
    check::ScenarioSpec spec;
    spec.seed = 7;
    spec.nodes = 4;
    spec.backends = std::move(backends);
    spec.workload = workload;
    spec.tasks = tasks;
    spec.duration = 1.0;
    return spec;
  };
  const std::vector<Golden> goldens = {
      {"flux null", campaign({{"flux"}}, "null", 64), 15581,
       0x00ba10ab003cfad6ull},
      {"dragon mixed", campaign({{"dragon"}}, "hetero", 48), 12317,
       0x058f62f8d0f7494full},
      {"srun impeccable", campaign({{"srun"}}, "impeccable", 48), 11907,
       0x0009e58111c98d79ull},
      {"dragon ingress",
       [&] {
         auto spec = campaign({{"dragon"}}, "null", 64);
         spec.clients = 1000;
         return spec;
       }(),
       15925, 0x8f98d08673e7380full},
      // Multi-node Flux jobs: their shim spawns go through sim::FanOut,
      // whose elided completions are not calendar events, so the `end`
      // line's events= counts only the spawn events really pushed.
      {"flux impeccable", campaign({{"flux"}}, "impeccable", 48), 12602,
       0xbe60464dbb5a7d8full},
  };
  check::RunOptions opts;
  opts.journal = true;
  for (const auto& golden : goldens) {
    const auto run = check::run_scenario(golden.spec, opts);
    ASSERT_TRUE(run.ok()) << golden.name;
    EXPECT_EQ(run.journal.size(), golden.bytes) << golden.name;
    const auto digest = util::fnv1a64(util::kFnv64Basis, run.journal);
    EXPECT_EQ(digest, golden.digest)
        << golden.name << std::hex << " digest 0x" << digest;
  }
}

TEST(Journal, HeaderStripsTheOracleDimensions) {
  // crash_at/recover describe how the oracle exercises a scenario, not the
  // run itself: every crash point must share one reference journal.
  auto spec = small_spec();
  check::RunOptions opts;
  opts.journal = true;
  const auto reference = check::run_scenario(spec, opts);
  spec.crash_at = 1;  // crash immediately after the header
  auto copts = opts;
  copts.crash_at = spec.crash_at;
  const auto crashed = check::run_scenario(spec, copts);
  ASSERT_TRUE(crashed.crashed);
  const auto ref_header = reference.journal.substr(
      0, reference.journal.find('\n') + 1);
  EXPECT_EQ(crashed.journal, ref_header);
}

TEST(Journal, RejectedPlacementsWriteNoAllocRecords) {
  // One flux instance on two nodes, 40-core tasks: the second task spans
  // both nodes, and each later one waits while node 1 has too few cores
  // left, so every scheduling pass rejects a placement part-way. Only
  // placed and released slices reach the journal: no claim is undone at
  // the time it was made, and the claimed cores add up to the tasks'.
  check::ScenarioSpec spec;
  spec.seed = 17;
  spec.nodes = 2;
  spec.backends = {{"flux"}};
  spec.workload = "sleep";
  spec.tasks = 6;
  spec.duration = 2.0;
  spec.cores = 40;
  check::RunOptions opts;
  opts.journal = true;
  const auto reference = check::run_scenario(spec, opts);
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(reference.done, 6u);
  const auto parsed = read(reference.journal);
  ASSERT_TRUE(parsed.intact());

  std::vector<Record::Alloc> allocs;
  std::vector<sim::Time> times;
  for (const auto& r : parsed.records) {
    if (r.type != RecordType::kAlloc) continue;
    allocs.push_back(r.alloc);
    times.push_back(r.time);
  }
  std::int64_t claimed = 0, released = 0;
  std::size_t claims = 0, releases = 0;
  for (std::size_t i = 0; i < allocs.size(); ++i) {
    const auto& r = allocs[i];
    EXPECT_EQ(r.gpus, 0);
    if (r.cores < 0) {
      claimed -= r.cores;
      ++claims;
      // A claim undone on the same node at the same time is a rolled-back
      // placement attempt.
      for (std::size_t j = i + 1; j < allocs.size() && times[j] == times[i];
           ++j) {
        EXPECT_FALSE(allocs[j].node == r.node && allocs[j].cores == -r.cores)
            << "claim undone at t=" << times[i] << " on node " << r.node;
      }
    } else {
      released += r.cores;
      ++releases;
    }
  }
  EXPECT_EQ(claimed, spec.tasks * spec.cores);
  EXPECT_EQ(released, claimed);
  EXPECT_EQ(releases, claims);
  EXPECT_GT(claims, static_cast<std::size_t>(spec.tasks));  // some span both

  const auto records = static_cast<std::uint64_t>(std::count(
      reference.journal.begin(), reference.journal.end(), '\n'));
  for (std::uint64_t k = 1; k <= records; ++k) {
    auto crashed = spec;
    crashed.crash_at = k;
    const auto violations = check::check_recovery(crashed, reference);
    EXPECT_TRUE(violations.empty())
        << "crash_at=" << k << ": " << violations.front().to_string();
  }
}

// ---------------------------------------------------- reader under damage

// The lines of `bytes`, each with its '\n' if it has one.
std::vector<std::string_view> lines_of(std::string_view bytes) {
  std::vector<std::string_view> lines;
  while (!bytes.empty()) {
    const std::size_t nl = bytes.find('\n');
    const std::size_t len = nl == std::string_view::npos ? bytes.size() : nl + 1;
    lines.push_back(bytes.substr(0, len));
    bytes.remove_prefix(len);
  }
  return lines;
}

// read() of damaged bytes: never throws, classifies the damage, and every
// record it returns is exactly one complete input line, in order.
void expect_reported_not_misread(const std::string& bytes,
                                 const std::string& what) {
  ReadResult result;
  try {
    result = read(bytes);
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": read() threw " << e.what();
    return;
  }
  const auto lines = lines_of(bytes);
  ASSERT_LE(result.records.size(), lines.size()) << what;
  if (result.corrupt) {
    EXPECT_LE(result.corrupt_index, lines.size()) << what;
    EXPECT_EQ(result.corrupt_index, result.records.size()) << what;
    EXPECT_FALSE(result.error.empty()) << what;
    EXPECT_FALSE(result.truncated) << what;
  } else if (result.truncated) {
    EXPECT_GT(result.truncated_bytes, 0u) << what;
    EXPECT_EQ(result.records.size() + 1, lines.size()) << what;
    EXPECT_EQ(result.truncated_bytes, lines.back().size()) << what;
  } else {
    EXPECT_EQ(result.records.size(), lines.size()) << what;
  }
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    ASSERT_EQ(result.records[i].encode(), lines[i])
        << what << ": record " << i << " re-encodes differently";
  }
}

TEST(Reader, MutatedJournalsAreReportedNotMisread) {
  // A real journal with every record type: header, ready, task edges,
  // allocs, a cancel storm and the end record.
  auto spec = small_spec();
  check::FaultSpec storm;
  storm.kind = check::FaultSpec::Kind::kCancelStorm;
  storm.time = 0.5;
  storm.count = 2;
  spec.faults = {storm};
  check::RunOptions opts;
  opts.journal = true;
  const auto run = check::run_scenario(spec, opts);
  ASSERT_TRUE(run.ok());
  const std::string& journal = run.journal;
  const auto lines = lines_of(journal);
  ASSERT_GT(lines.size(), 20u);
  ASSERT_NE(journal.find("\nf|"), std::string::npos);
  expect_reported_not_misread(journal, "the intact journal");

  sim::RngStream rng(19, "journal.reader_fuzz");
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const auto line_start = [&](std::size_t line) {
    std::size_t pos = 0;
    for (std::size_t i = 0; i < line; ++i) pos += lines[i].size();
    return pos;
  };
  for (int i = 0; i < 4000; ++i) {
    std::string damaged = journal;
    std::string what;
    const std::size_t pos = pick(damaged.size());
    const std::size_t a = pick(lines.size());
    const std::size_t b = pick(lines.size());
    switch (i % 7) {
      case 0:  // flip bits of one byte
        damaged[pos] = static_cast<char>(
            damaged[pos] ^ static_cast<char>(rng.uniform_int(1, 255)));
        what = "flipped byte " + std::to_string(pos);
        break;
      case 1:
        damaged.erase(pos, 1);
        what = "deleted byte " + std::to_string(pos);
        break;
      case 2:
        damaged.insert(pos, 1, static_cast<char>(rng.uniform_int(0, 255)));
        what = "inserted byte at " + std::to_string(pos);
        break;
      case 3:
        damaged.insert(pos, 1, rng.bernoulli(0.5) ? '|' : '\n');
        what = "stray delimiter at " + std::to_string(pos);
        break;
      case 4:  // the head of one line joined to the tail of another
        damaged.replace(line_start(a), lines[a].size(),
                        std::string(lines[a].substr(0, pick(lines[a].size()))) +
                            std::string(lines[b].substr(pick(lines[b].size()))));
        what = "spliced lines " + std::to_string(a) + "+" + std::to_string(b);
        break;
      case 5:
        damaged.insert(line_start(a), lines[a]);
        what = "duplicated line " + std::to_string(a);
        break;
      default:  // one line moved in front of another
        damaged.erase(line_start(a), lines[a].size());
        damaged.insert(
            b <= a ? line_start(b) : line_start(b) - lines[a].size(), lines[a]);
        what = "moved line " + std::to_string(a) + " before " +
               std::to_string(b);
        break;
    }
    expect_reported_not_misread(damaged, what);
    if (HasFatalFailure()) return;
  }
  // Truncation at every offset of the last three lines.
  for (std::size_t cut = line_start(lines.size() - 3); cut < journal.size();
       ++cut) {
    expect_reported_not_misread(journal.substr(0, cut),
                                "cut at " + std::to_string(cut));
    if (HasFatalFailure()) return;
  }
}

// ------------------------------------------- crash-at-every-event sweep

TEST(Recovery, CrashAtEveryRecordRecoversToTheUninterruptedRun) {
  // The bounded exhaustive sweep (the CLI twin is flotilla-fuzz
  // --crash-all): one uninterrupted reference, then the full recovery
  // oracle — crash, reload, replay-validate, compare terminal state —
  // at every single record index of the small fixed scenario.
  const auto spec = small_spec();
  check::RunOptions opts;
  opts.journal = true;
  const auto reference = check::run_scenario(spec, opts);
  ASSERT_TRUE(reference.ok());
  const auto records = static_cast<std::uint64_t>(std::count(
      reference.journal.begin(), reference.journal.end(), '\n'));
  ASSERT_GT(records, 10u);
  for (std::uint64_t k = 1; k <= records; ++k) {
    auto crashed = spec;
    crashed.crash_at = k;
    const auto violations = check::check_recovery(crashed, reference);
    EXPECT_TRUE(violations.empty())
        << "crash_at=" << k << ": " << violations.front().to_string();
  }
}

}  // namespace
}  // namespace flotilla::journal
