// Append-only journal writer + crash-tolerant reader (docs/recovery.md).
//
// The writer appends encoded records to in-memory segments; the caller
// persists the bytes (flotilla-run --journal streams them to a file, the
// fuzz harness keeps them in memory). Appends are line-atomic: each
// record is encoded into a reused line first and only then copied onto
// the journal, so the journal only ever grows by whole records (an
// encoding error leaves it untouched) and a simulated crash between
// events leaves a clean prefix. Torn tails — a real crash mid-write() —
// are the reader's job: an incomplete final line is discarded and
// reported as truncation, while a checksum or grammar failure on a
// *complete* line is corruption, reported with the record index.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "journal/record.hpp"

namespace flotilla::journal {

class Writer {
 public:
  // Each append encodes one record (checksummed, '\n'-terminated) and
  // returns its line, which stays where it is for the writer's lifetime.
  // A record that cannot be encoded raises util::Error and leaves bytes()
  // and records() as they were.
  std::string_view append(const Record& record) {
    record.encode_to(line_);
    return commit();
  }
  std::string_view append_transition(sim::Time time, core::TaskId task,
                                     core::TaskState to,
                                     std::string_view backend,
                                     std::int64_t attempt) {
    encode_transition(line_, time, task, to, backend, attempt);
    return commit();
  }
  std::string_view append_alloc(sim::Time time, std::int64_t node,
                                std::int64_t cores, std::int64_t gpus) {
    encode_alloc(line_, time, node, cores, gpus);
    return commit();
  }

  // The journal so far, assembled from its segments.
  std::string bytes() const;
  std::size_t size() const { return size_; }
  std::size_t records() const { return records_; }

 private:
  // Journal bytes, in segments that are never reallocated: each new one
  // is at least twice the size of the last, so bytes already written
  // never move, 48 segments outgrow any memory, and a small journal stays
  // small. The first is kFirstSegment bytes, since the header is appended
  // while a campaign is set up.
  struct Segment {
    std::unique_ptr<char[]> data;
    std::size_t capacity = 0;
    std::size_t size = 0;
  };
  static constexpr std::size_t kFirstSegment = 4096;
  static constexpr std::size_t kMaxSegments = 48;

  std::string_view commit() {
    // Before the first segment, segments_[0] has no room.
    Segment* segment =
        &segments_[std::max<std::size_t>(segments_used_, 1) - 1];
    if (segment->capacity - segment->size < line_.size()) {
      segment = &add_segment();
    }
    char* line = segment->data.get() + segment->size;
    std::memcpy(line, line_.data(), line_.size());
    segment->size += line_.size();
    size_ += line_.size();
    ++records_;
    return {line, line_.size()};
  }
  // Starts a segment that holds at least line_.
  Segment& add_segment();

  std::array<Segment, kMaxSegments> segments_;
  std::size_t segments_used_ = 0;
  std::size_t size_ = 0;
  std::size_t records_ = 0;
  // The line being appended, reused so encoding allocates nothing.
  std::string line_;
};

struct ReadResult {
  std::vector<Record> records;  // every intact record, in order

  // A final line without '\n' or whose checksum fails: the classic
  // crash-mid-write artifact. The partial bytes are discarded; recovery
  // proceeds from the last intact record.
  bool truncated = false;
  std::size_t truncated_bytes = 0;  // length of the discarded tail

  // A non-final line that fails its checksum or does not parse: the
  // journal is damaged, not merely torn. corrupt_index is the index the
  // bad record would have had.
  bool corrupt = false;
  std::size_t corrupt_index = 0;
  std::string error;

  bool intact() const { return !corrupt; }
};

// Decodes journal bytes, each complete line in one left-to-right scan
// that checks its checksum as it decodes its fields. Never throws: damage
// is reported in the result so callers can decide whether a torn tail is
// acceptable (recovery) or any damage is fatal (the codec tests). Fields
// must be in their canonical form; a time in particular must match
// (0|[1-9][0-9]*)\.[0-9]{9} and be finite, so anything decoded re-encodes
// to the same bytes. A header of another format version is corruption at
// its index, labeled "unsupported journal version N (this build reads
// v=2)". Allocates the record vector, sized by a count of the lines, and
// nothing per line whose text fields fit a std::string in place.
ReadResult read(std::string_view bytes);

}  // namespace flotilla::journal
