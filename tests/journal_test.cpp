// Tests for the durable event journal (src/journal/): byte-stable codec
// round-trips over seeded record streams, torn-tail vs corruption
// classification with record indices, journal byte-determinism of full
// runs, alloc records only for placed and released slices, StateImage
// folding, and the bounded crash-at-every-event sweep on a small fixed
// scenario (docs/recovery.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "check/runner.hpp"
#include "check/spec.hpp"
#include "journal/journal.hpp"
#include "journal/record.hpp"
#include "journal/recovery.hpp"
#include "sim/random.hpp"
#include "util/error.hpp"

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
          t, "task." + std::to_string(rng.uniform_int(0, 99999)),
          pick_name({"NEW", "TMGR_SCHEDULING", "RUNNING"}),
          pick_name({"RUNNING", "DONE", "FAILED", "CANCELED"}),
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
  const auto line = transition_record(1.5, "task.000001", "RUNNING", "DONE",
                                      "flux", 0)
                        .encode();
  for (std::size_t i = 0; i + 12 < line.size(); ++i) {  // spare the checksum
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
      transition_record(0.0, "task|0", "NEW", "DONE", "", 0).encode(),
      util::Error);
  EXPECT_THROW(header_record(1, "spec\nwith-newline").encode(), util::Error);
}

TEST(Codec, TimesAreFixedPrecision) {
  // 9 fractional digits, so encode() is stable across platforms and
  // the recovery oracle can compare journals byte-for-byte.
  const auto line = ready_record(1.0 / 3.0).encode();
  EXPECT_NE(line.find("t=0.333333333|"), std::string::npos) << line;
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

// -------------------------------------------------------- recovery manager

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
      transition_record(5.0, "task.0", "NEW", "TMGR_SCHEDULING", "", 0));
  writer.append(
      transition_record(6.0, "task.0", "RUNNING", "DONE", "flux", 1));
  writer.append(
      transition_record(6.0, "task.1", "NEW", "TMGR_SCHEDULING", "", 0));
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
  EXPECT_EQ(image.tasks.at("task.0").state, "DONE");
  EXPECT_EQ(image.tasks.at("task.0").backend, "flux");
  EXPECT_EQ(image.tasks.at("task.0").terminal_edges, 1);
  EXPECT_EQ(image.tasks.at("task.1").state, "TMGR_SCHEDULING");
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
  EXPECT_EQ(parsed.records.back().done, 5);
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

  std::vector<Record> allocs;
  for (const auto& r : parsed.records) {
    if (r.type == RecordType::kAlloc) allocs.push_back(r);
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
      for (std::size_t j = i + 1;
           j < allocs.size() && allocs[j].time == r.time; ++j) {
        EXPECT_FALSE(allocs[j].node == r.node && allocs[j].cores == -r.cores)
            << "claim undone at t=" << r.time << " on node " << r.node;
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
