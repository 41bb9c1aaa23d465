// Tests for the trace-replay workload driver.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/flotilla.hpp"
#include "util/error.hpp"
#include "workloads/trace_replay.hpp"

namespace flotilla::workloads {
namespace {

constexpr const char* kTrace =
    "submit_time,cores,gpus,cores_per_node,duration,modality,stage\n"
    "0,1,0,0,30,exec,warmup\n"
    "10,112,8,56,120,exec,mpi\n"
    "20,1,0,0,5,func,inference\n";

TEST(TraceReplay, ParsesCsvWithHeader) {
  std::istringstream in(kTrace);
  const auto entries = parse_trace(in);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_DOUBLE_EQ(entries[0].submit_time, 0.0);
  EXPECT_EQ(entries[0].task.stage, "warmup");
  EXPECT_EQ(entries[1].task.demand.cores, 112);
  EXPECT_EQ(entries[1].task.demand.cores_per_node, 56);
  EXPECT_EQ(entries[1].task.demand.gpus, 8);
  EXPECT_EQ(entries[2].task.modality, platform::TaskModality::kFunction);
}

TEST(TraceReplay, RoundTripsThroughWriter) {
  // Non-integer times must come back exactly: the writer prints enough
  // digits, not the stream's default six significant ones.
  std::istringstream in(std::string(kTrace) +
                        "1234.5678901,1,0,0,0.123456789,exec,tail\n"
                        "0.1,2,0,0,86400.000000001,func,tail\n");
  const auto entries = parse_trace(in);
  ASSERT_EQ(entries.size(), 5u);
  EXPECT_EQ(entries[3].submit_time, 1234.5678901);
  EXPECT_EQ(entries[3].task.duration, 0.123456789);
  std::ostringstream out;
  write_trace(out, entries);
  std::istringstream in2(out.str());
  const auto again = parse_trace(in2);
  ASSERT_EQ(again.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(again[i].submit_time, entries[i].submit_time);
    EXPECT_EQ(again[i].task.demand, entries[i].task.demand);
    EXPECT_EQ(again[i].task.duration, entries[i].task.duration);
    EXPECT_EQ(again[i].task.modality, entries[i].task.modality);
    EXPECT_EQ(again[i].task.stage, entries[i].task.stage);
  }
}

TEST(TraceReplay, WriterKeepsExtremeMagnitudes) {
  // Neither tiny nor huge times lose digits or switch to a form the
  // parser reads differently.
  const double times[] = {0.0,
                          std::numeric_limits<double>::denorm_min(),
                          1e-300,
                          std::ldexp(1.0, -40),
                          1e300,
                          std::numeric_limits<double>::max()};
  std::vector<TraceEntry> entries;
  for (const double t : times) {
    TraceEntry entry;
    entry.submit_time = t;
    entry.task.duration = t;
    entry.task.stage = "edge";
    entries.push_back(entry);
  }
  std::ostringstream out;
  write_trace(out, entries);
  std::istringstream in(out.str());
  const auto again = parse_trace(in);
  ASSERT_EQ(again.size(), entries.size()) << out.str();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(again[i].submit_time, entries[i].submit_time) << out.str();
    EXPECT_EQ(again[i].task.duration, entries[i].task.duration) << out.str();
  }
}

TEST(TraceReplay, RejectsMalformedRows) {
  std::istringstream missing("1,2,3\n");
  EXPECT_THROW(parse_trace(missing), util::Error);
  std::istringstream garbage("abc,1,0,0,5,exec\n");
  EXPECT_THROW(parse_trace(garbage), util::Error);
  std::istringstream modality("0,1,0,0,5,python\n");
  EXPECT_THROW(parse_trace(modality), util::Error);
  std::istringstream negative("-5,1,0,0,5,exec\n");
  EXPECT_THROW(parse_trace(negative), util::Error);
  // Every numeric cell: empty, non-finite, partial, fractional where an
  // integer belongs, negative, or too large to cast. Each fails with the
  // column's name in the message.
  const std::vector<std::pair<std::string, std::string>> bad = {
      {",1,0,0,5,exec", "submit_time"},
      {"nan,1,0,0,5,exec", "submit_time"},
      {"inf,1,0,0,5,exec", "submit_time"},
      {"1e999,1,0,0,5,exec", "submit_time"},
      {"0,,0,0,5,exec", "cores"},
      {"0,1e300,0,0,5,exec", "cores"},
      {"0,nan,0,0,5,exec", "cores"},
      {"0,1.5,0,0,5,exec", "cores"},
      {"0,-1,0,0,5,exec", "cores"},
      {"0,99999999999999999999,0,0,5,exec", "cores"},
      {"0,4294967296,0,0,5,exec", "cores"},
      {"0,1, 2,0,5,exec", "gpus"},
      {"0,1,0,x,5,exec", "cores_per_node"},
      {"0,1,0,0,,exec", "duration"},
      {"0,1,0,0,-5,exec", "duration"},
      {"0,1,0,0,inf,exec", "duration"},
      {"0,1,0,0,nan,exec", "duration"},
  };
  for (const auto& [row, column] : bad) {
    std::istringstream in(row + "\n");
    try {
      parse_trace(in);
      ADD_FAILURE() << "accepted: " << row;
    } catch (const util::Error& e) {
      EXPECT_NE(std::string(e.what()).find(column), std::string::npos)
          << row << " -> " << e.what();
    }
  }
  // The largest accepted count still parses exactly.
  std::istringstream edge("0,2147483647,0,0,0,exec\n");
  EXPECT_EQ(parse_trace(edge).at(0).task.demand.cores, 2147483647);
}

// A time cell has one text: no blank, '+' or hex float in either time
// column. The exponent forms exact_double writes still parse.
TEST(TraceReplay, NonCanonicalTimesAreRejected) {
  for (const std::string text : {" 2", "+2", "0x1p1", "+0x1p1"}) {
    for (const auto& [row, column] :
         {std::pair{text + ",1,0,0,5,exec", "submit_time"},
          std::pair{"0,1,0,0," + text + ",exec", "duration"}}) {
      std::istringstream in(row + "\n");
      try {
        parse_trace(in);
        ADD_FAILURE() << "accepted: " << row;
      } catch (const util::Error& e) {
        const std::string what = e.what();
        EXPECT_TRUE(what.starts_with("trace: ")) << row << " -> " << what;
        EXPECT_NE(what.find(column), std::string::npos)
            << row << " -> " << what;
      }
    }
  }
  for (const std::string text : {"1e-05", "0.10000000000000001"}) {
    std::istringstream in(text + ",1,0,0," + text + ",exec\n");
    const auto trace = parse_trace(in);
    ASSERT_EQ(trace.size(), 1u);
    EXPECT_EQ(trace[0].submit_time, std::stod(text)) << text;
    EXPECT_EQ(trace[0].task.duration, std::stod(text)) << text;
  }
}

TEST(TraceReplay, SubmitsAtRecordedVirtualTimes) {
  core::Session session(platform::frontier_spec(), 4, 42);
  core::PilotManager pmgr(session);
  auto& pilot = pmgr.submit(
      {.nodes = 4,
       .backends = {{.type = "flux", .partitions = 1},
                    {.type = "dragon", .nodes = 1}}});
  pilot.launch([](bool ok, const std::string&) { EXPECT_TRUE(ok); });
  session.run(240.0);
  core::TaskManager tmgr(session, pilot.agent());
  int done = 0;
  tmgr.on_complete([&](const core::Task& task) {
    EXPECT_EQ(task.state(), core::TaskState::kDone);
    ++done;
  });

  std::istringstream in(kTrace);
  const auto entries = parse_trace(in);
  const sim::Time start = session.now();
  EXPECT_EQ(replay(tmgr, entries, start), 3u);
  session.run();
  EXPECT_EQ(done, 3);
  // The func task was submitted ~20 s after replay start.
  sim::Time t = 0;
  ASSERT_TRUE(tmgr.task("task.000002")
                  .state_time(core::TaskState::kTmgrScheduling, t));
  EXPECT_NEAR(t - start, 20.0, 0.5);
}

}  // namespace
}  // namespace flotilla::workloads
