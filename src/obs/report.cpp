#include "obs/report.hpp"

#include <ostream>
#include <tuple>
#include <vector>

namespace flotilla::obs {

OverheadReport OverheadReport::from_trace(const Tracer& tracer) {
  OverheadReport report;
  report.dropped_ = tracer.dropped();
  // (type, component, entity) -> stack of begin times.
  std::map<std::tuple<SpanType, std::string, std::string>,
           std::vector<sim::Time>>
      open;
  tracer.for_each([&](const Record& r) {
    if (r.kind == RecordKind::kBegin) {
      open[{r.type, r.component, r.entity}].push_back(r.time);
      return;
    }
    if (r.kind == RecordKind::kInstant) {
      ++report.instants_[{r.type, r.component}];
      return;
    }
    if (r.kind != RecordKind::kEnd) return;
    auto it = open.find({r.type, r.component, r.entity});
    if (it == open.end() || it->second.empty()) {
      ++report.unmatched_ends_;
      return;
    }
    const sim::Time begin = it->second.back();
    it->second.pop_back();
    report.cells_[{r.type, r.component}].add(r.time - begin);
    report.histograms_[r.type].record(r.time - begin);
  });
  for (const auto& [key, stack] : open) {
    report.unclosed_begins_ += stack.size();
  }
  return report;
}

const sim::LatencyHistogram& OverheadReport::histogram(SpanType type) const {
  static const sim::LatencyHistogram kEmpty;
  const auto it = histograms_.find(type);
  return it == histograms_.end() ? kEmpty : it->second;
}

std::uint64_t OverheadReport::instants(SpanType type,
                                       const std::string& component) const {
  const auto it = instants_.find({type, component});
  return it == instants_.end() ? 0 : it->second;
}

SpanStats OverheadReport::stats(SpanType type,
                                const std::string& component) const {
  const auto it = cells_.find({type, component});
  return it == cells_.end() ? SpanStats{} : it->second;
}

SpanStats OverheadReport::aggregate(SpanType type) const {
  SpanStats out;
  for (const auto& [key, cell] : cells_) {
    if (key.first != type || cell.count == 0) continue;
    if (out.count == 0 || cell.min < out.min) out.min = cell.min;
    if (out.count == 0 || cell.max > out.max) out.max = cell.max;
    out.count += cell.count;
    out.total += cell.total;
  }
  return out;
}

SpanStats OverheadReport::aggregate_prefix(
    SpanType type, const std::string& component_prefix) const {
  SpanStats out;
  for (const auto& [key, cell] : cells_) {
    if (key.first != type || cell.count == 0) continue;
    if (key.second.compare(0, component_prefix.size(), component_prefix) !=
        0) {
      continue;
    }
    if (out.count == 0 || cell.min < out.min) out.min = cell.min;
    if (out.count == 0 || cell.max > out.max) out.max = cell.max;
    out.count += cell.count;
    out.total += cell.total;
  }
  return out;
}

void OverheadReport::print(std::ostream& os) const {
  os << "=== overhead report (per span type x component) ===\n";
  if (dropped_ > 0) {
    os << "  WARNING: trace ring dropped " << dropped_
       << " oldest records; counts are partial\n";
  }
  for (const auto& [key, cell] : cells_) {
    os << "  " << to_string(key.first) << " @ " << key.second
       << ": n=" << cell.count << " total=" << cell.total
       << "s mean=" << cell.mean() << "s min=" << cell.min
       << "s max=" << cell.max << "s\n";
  }
  os << "  fig7: scheduler_wait=" << scheduler_wait_total()
     << "s rp_core=" << rp_core_total() << "s\n";
  if (journal_records() > 0) {
    os << "  journal: records=" << journal_records() << "\n";
  }
  const auto& ingress = submit_to_launch();
  if (ingress.count() > 0) {
    os << "  ingress: submit->launch p50=" << ingress.percentile(0.50)
       << "s p99=" << ingress.percentile(0.99)
       << "s p999=" << ingress.percentile(0.999)
       << "s n=" << ingress.count() << "\n";
  }
  if (unmatched_ends_ + unclosed_begins_ > 0) {
    os << "  (unmatched ends: " << unmatched_ends_
       << ", unclosed begins: " << unclosed_begins_ << ")\n";
  }
}

}  // namespace flotilla::obs
