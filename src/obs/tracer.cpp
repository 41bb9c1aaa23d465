#include "obs/tracer.hpp"

#include <bit>

#include "util/error.hpp"

namespace flotilla::obs {

namespace {

// One FNV-1a step.
std::uint64_t fold_byte(std::uint64_t h, std::uint8_t byte) {
  return (h ^ byte) * util::kFnv64Prime;
}

// The eight bytes of `v`, least significant first.
std::uint64_t fold_u64(std::uint64_t h, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    h = fold_byte(h, static_cast<std::uint8_t>(v >> shift));
  }
  return h;
}

// A string's bytes plus a terminating zero, so the component and entity
// cannot run into each other ("ab"+"c" folds unlike "a"+"bc").
std::uint64_t fold_str(std::uint64_t h, std::string_view s) {
  return fold_byte(util::fnv1a64(h, s), 0);
}

}  // namespace

std::string_view to_string(SpanType type) {
  switch (type) {
    case SpanType::kTaskSubmit:
      return "submit";
    case SpanType::kTaskStageIn:
      return "stage_in";
    case SpanType::kTaskSchedule:
      return "schedule";
    case SpanType::kTaskQueueWait:
      return "queue_wait";
    case SpanType::kTaskLaunch:
      return "launch";
    case SpanType::kTaskRun:
      return "run";
    case SpanType::kTaskStageOut:
      return "stage_out";
    case SpanType::kTaskCollect:
      return "collect";
    case SpanType::kBootstrap:
      return "bootstrap";
    case SpanType::kRouting:
      return "routing";
    case SpanType::kPlacementAttempt:
      return "placement_attempt";
    case SpanType::kStateCallback:
      return "state_callback";
    case SpanType::kJournal:
      return "journal";
    case SpanType::kSubmitLaunch:
      return "submit_launch";
    case SpanType::kAdmission:
      return "admission";
    case SpanType::kTaskState:
      return "task_state";
  }
  return "?";
}

Tracer::Tracer(sim::Engine& engine, std::size_t capacity)
    : engine_(&engine), ring_(capacity) {
  FLOT_CHECK(capacity >= 1, "tracer capacity must be >= 1");
}

void Tracer::push(RecordKind kind, SpanType type, std::string_view component,
                  std::string_view entity, double value) {
  const sim::Time time = engine_->now();
  std::uint64_t h = fold_u64(digest_, std::bit_cast<std::uint64_t>(time));
  h = fold_byte(h, static_cast<std::uint8_t>(kind));
  h = fold_byte(h, static_cast<std::uint8_t>(type));
  h = fold_str(h, component);
  h = fold_str(h, entity);
  digest_ = fold_u64(h, std::bit_cast<std::uint64_t>(value));

  // Overwrite the oldest slot once full (drop-oldest). Slots are
  // preallocated; the strings inside reuse their capacity after the first
  // lap around the ring.
  const std::size_t slot = (head_ + count_) % ring_.size();
  Record& record = ring_[slot];
  record.time = time;
  record.kind = kind;
  record.type = type;
  record.component.assign(component);
  record.entity.assign(entity);
  record.value = value;
  if (count_ < ring_.size()) {
    ++count_;
  } else {
    head_ = (head_ + 1) % ring_.size();
  }
  ++recorded_;
}

}  // namespace flotilla::obs
