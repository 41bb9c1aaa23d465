#include "journal/scribe.hpp"

#include <utility>

namespace flotilla::journal {

namespace {

// Snapshot of one node's free capacity, via the cluster's range aggregate
// so the scribe never reaches into Node internals.
std::int64_t node_free_cores(const platform::Cluster& cluster,
                             platform::NodeId node) {
  return cluster.free_cores(platform::NodeRange{node, 1});
}

std::int64_t node_free_gpus(const platform::Cluster& cluster,
                            platform::NodeId node) {
  return cluster.free_gpus(platform::NodeRange{node, 1});
}

}  // namespace

Scribe::Scribe(core::Session& session)
    : session_(session), obs_trace_(session.trace_handle()) {
  const int nodes = session_.cluster().size();
  free_cores_.reserve(nodes);
  free_gpus_.reserve(nodes);
  for (platform::NodeId n = 0; n < nodes; ++n) {
    free_cores_.push_back(node_free_cores(session_.cluster(), n));
    free_gpus_.push_back(node_free_gpus(session_.cluster(), n));
  }
  session_.cluster().add_observer(this);
}

Scribe::Scribe(core::Session& session, std::vector<Record> prefix)
    : Scribe(session) {
  prefix_ = std::move(prefix);
  validating_ = true;
}

Scribe::~Scribe() { session_.cluster().remove_observer(this); }

void Scribe::attach(core::TaskManager& tmgr) {
  tmgr.on_transition([this](const core::Task& task, core::TaskState from,
                            core::TaskState to) {
    emit(transition_record(session_.now(), task.uid(),
                           std::string(core::to_string(from)),
                           std::string(core::to_string(to)), task.backend(),
                           task.attempts()));
  });
}

void Scribe::record_header(std::uint64_t seed, std::string spec) {
  emit(header_record(seed, std::move(spec)));
}

void Scribe::record_ready() { emit(ready_record(session_.now())); }

void Scribe::record_fault(std::string kind, std::string backend,
                          std::int64_t index, std::int64_t count) {
  emit(fault_record(session_.now(), std::move(kind), std::move(backend),
                    index, count));
}

void Scribe::record_end(std::int64_t done, std::int64_t failed,
                        std::int64_t canceled, std::uint64_t events) {
  emit(end_record(session_.now(), done, failed, canceled, events));
}

void Scribe::node_changed(platform::NodeId node) {
  const std::int64_t cores = node_free_cores(session_.cluster(), node);
  const std::int64_t gpus = node_free_gpus(session_.cluster(), node);
  const std::int64_t dc = cores - free_cores_[node];
  const std::int64_t dg = gpus - free_gpus_[node];
  free_cores_[node] = cores;
  free_gpus_[node] = gpus;
  // A notify with no net capacity change carries no durable information.
  // Every real allocate/release is journaled, so a placement that rolls
  // back (best-fit, gpu-pack, the index-less linear scan) writes a -/+
  // pair per node it probed; a rejected indexed first-fit attempt
  // allocates nothing and writes nothing.
  if (dc == 0 && dg == 0) return;
  emit(alloc_record(session_.now(), node, dc, dg));
}

void Scribe::emit(const Record& record) {
  // Encoded once: the same line is validated and appended.
  const std::string line = record.encode();
  if (validating_ && !diverged_ && cursor_ < prefix_.size()) {
    std::string expected = prefix_[cursor_].encode();
    if (expected != line) {
      diverged_ = true;
      divergence_ = Divergence{cursor_, std::move(expected), line};
    }
    ++cursor_;
  }
  writer_.append_encoded(line);
  obs_trace_.instant(obs::SpanType::kJournal, "journal",
                     to_string(record.type), 1.0);
}

}  // namespace flotilla::journal
