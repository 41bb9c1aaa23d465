#include "workloads/trace_replay.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/error.hpp"
#include "util/strfmt.hpp"

namespace flotilla::workloads {

namespace {

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::istringstream stream(line);
  while (std::getline(stream, cell, ',')) cells.push_back(cell);
  return cells;
}

// Every cell is checked before it is used: a trace comes from outside, so
// an empty, partial, non-finite or out-of-range cell is an error labeled
// "trace:", never a silent zero or an out-of-range cast. A time has one
// text: from_chars takes no blank, '+' or hex float and must use the whole
// cell. It keeps exponents, which util::exact_double (%.17g) writes.
double to_time(const std::string& cell, const char* column,
               const std::string& line) {
  double value = 0.0;
  const char* last = cell.data() + cell.size();
  const auto [end, ec] =
      std::from_chars(cell.data(), last, value, std::chars_format::general);
  if (ec == std::errc::result_out_of_range) {
    util::raise("trace: ", column, " out of range '", cell, "' in row: ",
                line);
  }
  if (ec != std::errc() || end != last) {
    util::raise("trace: bad ", column, " '", cell, "' in row: ", line);
  }
  if (!std::isfinite(value) || value < 0.0) {
    util::raise("trace: ", column, " must be finite and non-negative, got '",
                cell, "' in row: ", line);
  }
  return value;
}

std::int64_t to_count(const std::string& cell, const char* column,
                      const std::string& line) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
  std::int64_t value = 0;
  const char* last = cell.data() + cell.size();
  const auto [end, err] = std::from_chars(cell.data(), last, value);
  if (cell.empty() || err == std::errc::invalid_argument || end != last) {
    util::raise("trace: bad ", column, " '", cell, "' in row: ", line);
  }
  if (err != std::errc{} || value < 0 || value > kMax) {
    util::raise("trace: ", column, " out of range [0, ", kMax, "]: '", cell,
                "' in row: ", line);
  }
  return value;
}

}  // namespace

std::vector<TraceEntry> parse_trace(std::istream& in) {
  std::vector<TraceEntry> entries;
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (first) {
      first = false;
      if (line.rfind("submit_time", 0) == 0) continue;  // header
    }
    const auto cells = split_csv(line);
    if (cells.size() < 6) util::raise("trace: row needs >= 6 fields: ", line);
    TraceEntry entry;
    entry.submit_time = to_time(cells[0], "submit_time", line);
    entry.task.demand.cores = to_count(cells[1], "cores", line);
    entry.task.demand.gpus = to_count(cells[2], "gpus", line);
    entry.task.demand.cores_per_node =
        to_count(cells[3], "cores_per_node", line);
    entry.task.duration = to_time(cells[4], "duration", line);
    if (cells[5] == "func") {
      entry.task.modality = platform::TaskModality::kFunction;
    } else if (cells[5] != "exec") {
      util::raise("trace: modality must be exec|func: ", line);
    }
    if (cells.size() >= 7) entry.task.stage = cells[6];
    entries.push_back(std::move(entry));
  }
  return entries;
}

void write_trace(std::ostream& out, const std::vector<TraceEntry>& entries) {
  out << "submit_time,cores,gpus,cores_per_node,duration,modality,stage\n";
  for (const auto& entry : entries) {
    out << util::exact_double(entry.submit_time) << ','
        << entry.task.demand.cores << ',' << entry.task.demand.gpus << ','
        << entry.task.demand.cores_per_node << ','
        << util::exact_double(entry.task.duration) << ','
        << (entry.task.modality == platform::TaskModality::kFunction
                ? "func"
                : "exec")
        << ',' << entry.task.stage << '\n';
  }
}

std::size_t replay(core::TaskManager& tmgr,
                   const std::vector<TraceEntry>& entries, sim::Time start) {
  auto& engine = tmgr.session().engine();
  for (const auto& entry : entries) {
    engine.at(start + entry.submit_time, [&tmgr, task = entry.task] {
      tmgr.submit(task);
    });
  }
  return entries.size();
}

}  // namespace flotilla::workloads
