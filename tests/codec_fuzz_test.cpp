// Random-line fuzz of the text codecs that take input from outside: the
// ScenarioSpec line (flotilla-fuzz --replay, --crash-all), the
// trace-replay CSV (flotilla-run --trace) and the journal line
// (flotilla-run --recover). Seeded mutations of valid lines (byte flips,
// dropped, duplicated and reordered segments, stray delimiters, and
// numbers swapped for extreme, non-canonical or non-finite ones) must each
// either be refused with a labeled error or parse to a value whose
// encoding is a fixed point: encode(parse(encode(parse(x)))) ==
// encode(parse(x)). A journal line is a fixed point at once: what the
// reader takes re-encodes to the very line it read.
#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <cstdio>
#include <initializer_list>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "check/generator.hpp"
#include "check/spec.hpp"
#include "journal/journal.hpp"
#include "journal/record.hpp"
#include "sim/random.hpp"
#include "util/error.hpp"
#include "workloads/trace_replay.hpp"

namespace flotilla {
namespace {

constexpr int kLinesPerSeed = 2000;

// Numbers a mutation can put in place of a numeric token.
constexpr const char* kExtremes[] = {
    "0", "-0", "00", "007", "+1", " 1", "1 ", "-1", "", "-", "1.5", "1e3",
    "2147483647", "2147483648", "-2147483649", "4294967296",
    "9223372036854775807", "9223372036854775808", "18446744073709551615",
    "18446744073709551616", "99999999999999999999999", "1e308", "1e999",
    "-1e999", "1e-320", "4.9406564584124654e-324", "nan", "-nan", "inf",
    "-inf", "infinity", "0x1p3", "0x", ".5", "5.", "1,5", "1;5", "1:5"};

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed, const char* stream)
      : rng_(seed, stream) {}

  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }

  // One to three mutations of `line`, whose segments are separated by any
  // of `separators` (the first is the top-level one).
  std::string mutate(std::string line, std::string_view separators) {
    const int rounds = static_cast<int>(rng_.uniform_int(1, 3));
    for (int r = 0; r < rounds && !line.empty(); ++r) {
      switch (rng_.uniform_int(0, 6)) {
        case 0: {  // flip bits of one byte
          const std::size_t pos = pick(line.size());
          line[pos] = static_cast<char>(
              line[pos] ^ static_cast<char>(rng_.uniform_int(1, 255)));
          break;
        }
        case 1:  // a stray delimiter
          line.insert(pick(line.size() + 1), 1,
                      "=;:,@\n"[pick(6)]);
          break;
        case 2:
          line = drop_segment(line, separators[pick(separators.size())]);
          break;
        case 3:
          line = duplicate_segment(line, separators[0]);
          break;
        case 4:
          line = swap_segments(line, separators[pick(separators.size())]);
          break;
        default:  // a number swapped for an extreme one (twice as often)
          line = replace_number(line);
          break;
      }
    }
    return line;
  }

 private:
  static std::vector<std::string> split(const std::string& line, char sep) {
    std::vector<std::string> parts;
    std::size_t start = 0;
    for (;;) {
      const std::size_t end = line.find(sep, start);
      parts.push_back(line.substr(start, end - start));
      if (end == std::string::npos) return parts;
      start = end + 1;
    }
  }

  static std::string join(const std::vector<std::string>& parts, char sep) {
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (i) out += sep;
      out += parts[i];
    }
    return out;
  }

  std::string drop_segment(const std::string& line, char sep) {
    auto parts = split(line, sep);
    parts.erase(parts.begin() + static_cast<std::ptrdiff_t>(pick(parts.size())));
    return join(parts, sep);
  }

  std::string duplicate_segment(const std::string& line, char sep) {
    auto parts = split(line, sep);
    const std::size_t i = pick(parts.size());
    parts.insert(parts.begin() + static_cast<std::ptrdiff_t>(pick(parts.size())),
                 parts[i]);
    return join(parts, sep);
  }

  std::string swap_segments(const std::string& line, char sep) {
    auto parts = split(line, sep);
    std::swap(parts[pick(parts.size())], parts[pick(parts.size())]);
    return join(parts, sep);
  }

  // Replaces one maximal run of number characters.
  std::string replace_number(const std::string& line) {
    const auto numeric = [](char c) {
      return std::isdigit(static_cast<unsigned char>(c)) || c == '.' ||
             c == '-' || c == 'e';
    };
    std::vector<std::pair<std::size_t, std::size_t>> runs;
    for (std::size_t i = 0; i < line.size();) {
      if (!std::isdigit(static_cast<unsigned char>(line[i]))) {
        ++i;
        continue;
      }
      std::size_t j = i;
      while (j < line.size() && numeric(line[j])) ++j;
      runs.emplace_back(i, j - i);
      i = j;
    }
    if (runs.empty()) return line;
    const auto [pos, len] = runs[pick(runs.size())];
    std::string out = line;
    out.replace(pos, len, kExtremes[pick(std::size(kExtremes))]);
    return out;
  }

  sim::RngStream rng_;
};

// Expects `encode_parse(x)` to raise a util::Error starting with one of
// `labels`, or to return a line that encode_parse maps to itself. Returns
// whether `x` was accepted.
template <typename EncodeParse>
bool refused_or_fixed_point(const std::string& x, EncodeParse encode_parse,
                            std::initializer_list<std::string_view> labels) {
  std::string once;
  try {
    once = encode_parse(x);
  } catch (const util::Error& e) {
    const std::string_view what = e.what();
    bool labeled = false;
    for (const auto label : labels) labeled |= what.starts_with(label);
    EXPECT_TRUE(labeled) << "unlabeled error '" << what << "' for: " << x;
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "not a util::Error: " << e.what() << " for: " << x;
    return false;
  }
  try {
    EXPECT_EQ(encode_parse(once), once) << "input: " << x;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "its own encoding was refused: " << e.what()
                  << "\n  input: " << x << "\n  encoding: " << once;
  }
  return true;
}

std::string spec_encode_parse(const std::string& line) {
  return check::ScenarioSpec::parse(line).to_string();
}

TEST(SpecCodecFuzz, MutatedLinesAreRefusedOrReachAFixedPoint) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    sim::RngStream generator(seed, "codec_fuzz.generate");
    Mutator mutator(seed, "codec_fuzz.spec");
    int accepted = 0;
    for (int i = 0; i < kLinesPerSeed; ++i) {
      const auto line =
          check::generate_scenario(
              generator, check::GeneratorOptions{.force_ingress = i % 3 == 0})
              .to_string();
      // Arrival kinds belong to the ingress layer, which labels its own.
      accepted += refused_or_fixed_point(mutator.mutate(line, ";,:@"),
                                         spec_encode_parse,
                                         {"spec: ", "arrival: "});
      if (HasFailure()) return;
    }
    // Both outcomes are exercised, not only refusals.
    EXPECT_GT(accepted, kLinesPerSeed / 10) << "seed " << seed;
    EXPECT_LT(accepted, kLinesPerSeed * 9 / 10) << "seed " << seed;
  }
}

std::string trace_encode_parse(const std::string& text) {
  std::istringstream in(text);
  std::ostringstream out;
  workloads::write_trace(out, workloads::parse_trace(in));
  return out.str();
}

// A valid trace of a few rows with assorted magnitudes.
std::string random_trace(sim::RngStream& rng) {
  std::vector<workloads::TraceEntry> entries(
      static_cast<std::size_t>(rng.uniform_int(1, 4)));
  const char* stages[] = {"", "warmup", "mpi", "inference", "a b"};
  for (auto& e : entries) {
    e.submit_time = rng.bernoulli(0.2) ? rng.uniform(0.0, 1e12)
                                       : rng.uniform(0.0, 100.0);
    e.task.demand.cores = rng.uniform_int(0, 2147483647);
    e.task.demand.gpus = rng.uniform_int(0, 8);
    e.task.demand.cores_per_node = rng.uniform_int(0, 56);
    e.task.duration = rng.uniform(0.0, 1e6);
    if (rng.bernoulli(0.5)) {
      e.task.modality = platform::TaskModality::kFunction;
    }
    e.task.stage = stages[rng.uniform_int(0, 4)];
  }
  std::ostringstream out;
  workloads::write_trace(out, entries);
  return out.str();
}

TEST(TraceCsvFuzz, MutatedTracesAreRefusedOrReachAFixedPoint) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    sim::RngStream generator(seed, "codec_fuzz.trace_rows");
    Mutator mutator(seed, "codec_fuzz.trace");
    int accepted = 0;
    for (int i = 0; i < kLinesPerSeed; ++i) {
      accepted += refused_or_fixed_point(
          mutator.mutate(random_trace(generator), "\n,"), trace_encode_parse,
          {"trace: "});
      if (HasFailure()) return;
    }
    EXPECT_GT(accepted, kLinesPerSeed / 10) << "seed " << seed;
    EXPECT_LT(accepted, kLinesPerSeed * 9 / 10) << "seed " << seed;
  }
}

// A valid journal line of the given record type (0 to 8: every type, and
// transitions, allocs and faults with and without their optional fields).
std::string journal_line(sim::RngStream& rng, int variant) {
  using namespace journal;
  const sim::Time t = rng.uniform(0.0, 1e5);
  const auto task = static_cast<core::TaskId>(rng.uniform_int(0, 99999));
  const auto state = static_cast<core::TaskState>(
      rng.uniform_int(0, static_cast<int>(core::TaskState::kCanceled)));
  switch (variant) {
    case 0:
      return header_record(rng.next_u64(),
                           "tool=flotilla-run;backend=flux;nodes=" +
                               std::to_string(rng.uniform_int(1, 9408)) +
                               ";tasks=20000;duration=0")
          .encode();
    case 1:
      return ready_record(t).encode();
    case 2:
      return transition_record(t, task, state, "", 0).encode();
    case 3:
      return transition_record(t, task, state, "dragon",
                               rng.uniform_int(1, 5))
          .encode();
    case 4:
      return alloc_record(t, rng.uniform_int(0, 9407),
                          rng.uniform_int(-64, 64), 0)
          .encode();
    case 5:
      return alloc_record(t, rng.uniform_int(0, 9407),
                          rng.uniform_int(-64, 64), rng.uniform_int(-8, 8))
          .encode();
    case 6:
      return fault_record(t, "crash", "flux", rng.uniform_int(0, 7), 0)
          .encode();
    case 7:
      return fault_record(t, "cancel", "", 0, rng.uniform_int(1, 100))
          .encode();
    default:
      return end_record(t, rng.uniform_int(0, 100000),
                        rng.uniform_int(0, 100), rng.uniform_int(0, 100),
                        rng.next_u64() % 100000000)
          .encode();
  }
}

// `body` (a line without its checksum field) with the checksum the writer
// would give it, so the reader gets past the checksum to the grammar.
std::string with_checksum(const std::string& body) {
  const std::string covered =
      body + (body.starts_with("journal|") ? "|h=" : "|");
  char hex[9];
  std::snprintf(hex, sizeof hex, "%08x", journal::fnv1a32(covered));
  return covered + hex + "\n";
}

// The reader's labels: the grammar's, and the checksum's (a mutation that
// inserts a '\n' splits the line before its checksum).
constexpr std::string_view kJournalLabels[] = {
    "missing field '",      "bad integer in field '", "bad time",
    "expected field '",     "field '",                "unexpected field in '",
    "unknown record tag '", "bad task state code",    "bad journal version",
    "unsupported journal version ", "bad seed",       "missing checksum",
    "malformed checksum",   "checksum mismatch"};

TEST(JournalCodecFuzz, MutatedBodiesAreRefusedOrReachAFixedPoint) {
  constexpr int kVariants = 9;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    sim::RngStream generator(seed, "codec_fuzz.journal_lines");
    Mutator mutator(seed, "codec_fuzz.journal");
    int accepted = 0;
    std::array<int, kVariants> accepted_of{};
    for (int i = 0; i < kLinesPerSeed; ++i) {
      const int variant = i % kVariants;
      const std::string line = journal_line(generator, variant);
      // The body: everything before the checksum field ("|" or "|h=", 8
      // hex digits, '\n').
      const std::size_t suffix = variant == 0 ? 12 : 10;
      const std::string x = with_checksum(
          mutator.mutate(line.substr(0, line.size() - suffix), "|="));
      const auto result = journal::read(x);
      if (result.corrupt) {
        EXPECT_EQ(result.corrupt_index, 0u) << x;
        EXPECT_TRUE(result.records.empty()) << x;
        bool labeled = false;
        for (const auto label : kJournalLabels) {
          labeled |= result.error.starts_with(label);
        }
        EXPECT_TRUE(labeled) << "unlabeled error '" << result.error
                             << "' for: " << x;
      } else {
        EXPECT_FALSE(result.truncated) << x;
        ASSERT_EQ(result.records.size(), 1u) << x;
        EXPECT_EQ(result.records[0].encode(), x);
        ++accepted;
        ++accepted_of[static_cast<std::size_t>(variant)];
      }
      if (HasFailure()) return;
    }
    // The journal grammar is stricter than the spec's (positional fields,
    // a checksum marker, canonical times), so fewer mutations survive.
    EXPECT_GT(accepted, kLinesPerSeed / 20) << "seed " << seed;
    EXPECT_LT(accepted, kLinesPerSeed * 9 / 10) << "seed " << seed;
    // Every record type survives some mutation, so each one's grammar is
    // walked on both sides.
    for (int v = 0; v < kVariants; ++v) {
      EXPECT_GT(accepted_of[static_cast<std::size_t>(v)], 0)
          << "seed " << seed << " variant " << v;
    }
  }
}

}  // namespace
}  // namespace flotilla
