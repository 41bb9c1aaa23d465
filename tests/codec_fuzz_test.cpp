// Random-line fuzz of the two text codecs that take input from outside:
// the ScenarioSpec line (flotilla-fuzz --replay, --crash-all) and the
// trace-replay CSV (flotilla-run --trace). Seeded mutations of valid lines
// (byte flips, dropped, duplicated and reordered segments, stray
// delimiters, and numbers swapped for extreme, non-canonical or
// non-finite ones) must each either be refused with a labeled util::Error
// or parse to a value whose encoding is a fixed point:
// encode(parse(encode(parse(x)))) == encode(parse(x)).
#include <gtest/gtest.h>

#include <cctype>
#include <initializer_list>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "check/generator.hpp"
#include "check/spec.hpp"
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

}  // namespace
}  // namespace flotilla
