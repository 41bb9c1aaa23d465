#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "util/config.hpp"
#include "util/error.hpp"
#include "util/id_registry.hpp"
#include "util/slot_table.hpp"
#include "util/strfmt.hpp"

namespace flotilla::util {
namespace {

TEST(Strfmt, CatConcatenatesMixedTypes) {
  EXPECT_EQ(cat("tasks=", 42, " rate=", 1.5), "tasks=42 rate=1.5");
  EXPECT_EQ(cat(), "");
}

TEST(Strfmt, FmtReplacesPlaceholdersInOrder) {
  EXPECT_EQ(fmt("submit {} to {}", "t.1", "flux"), "submit t.1 to flux");
}

TEST(Strfmt, FmtSurplusArgumentsAreAppended) {
  EXPECT_EQ(fmt("x={}", 1, 2), "x=1 2");
}

TEST(Strfmt, FmtSurplusPlaceholdersStayVerbatim) {
  EXPECT_EQ(fmt("a={} b={}", 7), "a=7 b={}");
}

TEST(Strfmt, ExactDoubleReadsBackBitForBit) {
  for (const double v :
       {0.1, 1.0 / 3.0, 1234.5678901, 0.123456789, 86400.000000001, -2.5,
        1e-300, 1e300, std::numeric_limits<double>::max(),
        std::numeric_limits<double>::min(), std::ldexp(1.0, -40), 0.0}) {
    const std::string text = exact_double(v);
    EXPECT_EQ(std::stod(text), v) << text;
  }
  EXPECT_TRUE(std::signbit(std::stod(exact_double(-0.0))));
}

TEST(Strfmt, ExactDoublePrintsLikePrintfSeventeenDigits) {
  // Spec lines, arrival tokens and traces all print through this helper;
  // their bytes are pinned by goldens, so the form must stay "%.17g".
  EXPECT_EQ(exact_double(0.0), "0");
  EXPECT_EQ(exact_double(64.0), "64");
  EXPECT_EQ(exact_double(-3.0), "-3");
  EXPECT_EQ(exact_double(0.5), "0.5");
  EXPECT_EQ(exact_double(0.1), "0.10000000000000001");
  EXPECT_EQ(exact_double(1234.5678901), "1234.5678901000001");
  EXPECT_EQ(exact_double(1e300), "1.0000000000000001e+300");
  EXPECT_EQ(exact_double(-std::numeric_limits<double>::max()),
            "-1.7976931348623157e+308");
}

TEST(Config, ParsesPairsAndTrimsWhitespace) {
  const auto config =
      Config::from_pairs({" nodes = 4 ", "backend=flux", "# comment", ""});
  EXPECT_EQ(config.get_int("nodes", -1), 4);
  EXPECT_EQ(config.get_string("backend"), "flux");
  EXPECT_FALSE(config.has("comment"));
}

TEST(Config, ParsesMultilineText) {
  const auto config = Config::from_text("a=1\nb = two\n# note\nc=3.5");
  EXPECT_EQ(config.get_int("a", 0), 1);
  EXPECT_EQ(config.get_string("b"), "two");
  EXPECT_DOUBLE_EQ(config.get_double("c", 0), 3.5);
}

TEST(Config, TypedGettersFallBack) {
  const Config config;
  EXPECT_EQ(config.get_int("missing", 9), 9);
  EXPECT_DOUBLE_EQ(config.get_double("missing", 0.5), 0.5);
  EXPECT_TRUE(config.get_bool("missing", true));
  EXPECT_EQ(config.get_string("missing", "x"), "x");
}

// A number has one text: the whole value, no '+', hex, leading zero or
// "-0", and nothing empty.
TEST(Config, TypedGettersRejectGarbage) {
  for (const char* text :
       {"abc", "", "+1", "01", "-0", "1.5", "1e3", "0x10", "12abc", "1 2",
        "99999999999999999999"}) {
    const auto bad = Config::from_pairs({std::string("n=") + text});
    EXPECT_THROW(bad.get_int("n", 0), Error) << "'" << text << "'";
  }
  for (const char* text : {"", "+1.5", "0x1p-3", "1.5x", "1e999", "-"}) {
    const auto bad = Config::from_pairs({std::string("x=") + text});
    EXPECT_THROW(bad.get_double("x"), Error) << "'" << text << "'";
  }
}

TEST(Config, BoolAcceptsCommonSpellings) {
  const auto config =
      Config::from_pairs({"a=true", "b=0", "c=YES", "d=off"});
  EXPECT_TRUE(config.get_bool("a", false));
  EXPECT_FALSE(config.get_bool("b", true));
  EXPECT_TRUE(config.get_bool("c", false));
  EXPECT_FALSE(config.get_bool("d", true));
}

TEST(Config, SubsetStripsPrefix) {
  const auto config =
      Config::from_pairs({"flux.partitions=4", "flux.nodes=16", "srun.x=1"});
  const auto flux = config.subset("flux");
  EXPECT_EQ(flux.get_int("partitions", 0), 4);
  EXPECT_EQ(flux.get_int("nodes", 0), 16);
  EXPECT_FALSE(flux.has("x"));
}

TEST(Config, MergedWithPrefersOther) {
  const auto base = Config::from_pairs({"a=1", "b=2"});
  const auto over = Config::from_pairs({"b=3", "c=4"});
  const auto merged = base.merged_with(over);
  EXPECT_EQ(merged.get_int("a", 0), 1);
  EXPECT_EQ(merged.get_int("b", 0), 3);
  EXPECT_EQ(merged.get_int("c", 0), 4);
}

TEST(Config, MissingEqualsThrows) {
  EXPECT_THROW(Config::from_pairs({"justakey"}), Error);
}

TEST(IdRegistry, GeneratesSequentialPaddedIds) {
  IdRegistry registry;
  EXPECT_EQ(registry.next("task"), "task.000000");
  EXPECT_EQ(registry.next("task"), "task.000001");
  EXPECT_EQ(registry.next("pilot", 4), "pilot.0000");
  EXPECT_EQ(registry.count("task"), 2u);
  EXPECT_EQ(registry.count("pilot"), 1u);
  EXPECT_EQ(registry.count("other"), 0u);
}

// The stream formatting ids used to go through; next() must match it byte
// for byte, because uids reach journals, traces and fingerprints.
std::string stream_formatted(const std::string& ns, int width,
                             std::uint64_t value) {
  std::ostringstream os;
  os << ns << '.' << std::setw(width) << std::setfill('0') << value;
  return os.str();
}

TEST(IdRegistry, MatchesStreamFormattingByteForByte) {
  IdRegistry registry;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(registry.next("task"), stream_formatted("task", 6, i));
  }
  for (const int width : {-3, 0, 1, 4, 12}) {
    const std::string ns = "w" + std::to_string(width + 3);
    for (std::uint64_t i = 0; i < 12; ++i) {
      ASSERT_EQ(registry.next(ns, width), stream_formatted(ns, width, i));
    }
  }
}

TEST(IdRegistry, PadsAndOverflowsTheWidth) {
  IdRegistry registry;
  for (int i = 0; i < 1000000; ++i) registry.next("task");
  EXPECT_EQ(registry.next("task"), "task.1000000");  // wider than 6 digits
  EXPECT_EQ(registry.next("task", 9), "task.001000001");
  EXPECT_EQ(registry.next("flux", 4), "flux.0000");
  EXPECT_EQ(registry.next("pilot.sub", 2), "pilot.sub.00");
  EXPECT_EQ(registry.next("", 3), ".000");
  EXPECT_EQ(registry.count("task"), 1000002u);
  EXPECT_EQ(registry.count("flux"), 1u);
}

TEST(IdRegistry, IssueReportsTheOrdinalItFormatted) {
  IdRegistry registry;
  registry.next("task");
  const auto issued = registry.issue("task");
  EXPECT_EQ(issued.ordinal, 1u);
  EXPECT_EQ(issued.id, "task.000001");
  EXPECT_EQ(registry.next("task"), "task.000002");  // one shared counter
  const auto pilot = registry.issue("pilot", 4);
  EXPECT_EQ(pilot.ordinal, 0u);
  EXPECT_EQ(pilot.id, "pilot.0000");
}

TEST(IdRegistry, ResetClearsCounters) {
  IdRegistry registry;
  registry.next("x");
  registry.reset();
  EXPECT_EQ(registry.next("x"), "x.000000");
}

// Records keep their address while claimed, a released slot is reused
// last-released first, and an emptied table starts again from slot 0 with
// one chunk left.
TEST(SlotTable, ClaimsReusesAndResetsWhenEmptied) {
  SlotTable<std::string, 4> table;
  std::vector<std::uint32_t> slots;
  for (int i = 0; i < 10; ++i) {
    slots.push_back(table.claim(std::to_string(i)));
  }
  EXPECT_EQ(slots, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  const std::string* first = &table[0];
  table.release(7);
  table.release(2);
  EXPECT_EQ(table[2], "");  // reset on release
  EXPECT_EQ(table.claim("a"), 2u);
  EXPECT_EQ(table.claim("b"), 7u);
  EXPECT_EQ(table.claim("c"), 10u);
  EXPECT_EQ(&table[0], first);  // chunks never move
  EXPECT_EQ(table.sorted_slots([](const std::string& s) { return !s.empty(); },
                               [](const std::string& s) { return s; }),
            (std::vector<std::uint32_t>{0, 1, 3, 4, 5, 6, 8, 9, 2, 7, 10}));
  for (std::uint32_t slot = 0; slot <= 10; ++slot) table.release(slot);
  EXPECT_EQ(table.claim("again"), 0u);
  EXPECT_EQ(table.claim("next"), 1u);
  EXPECT_EQ(&table[0], first);  // the first chunk stays
}

TEST(Error, FlotCheckThrowsWithContext) {
  try {
    FLOT_CHECK(1 == 2, "value was ", 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("42"), std::string::npos);
  }
}

}  // namespace
}  // namespace flotilla::util
