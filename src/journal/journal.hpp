// Append-only journal writer + crash-tolerant reader (docs/recovery.md).
//
// The writer appends encoded records to an in-memory byte buffer; the
// caller persists the bytes (flotilla-run --journal streams them to a
// file, the fuzz harness keeps them in memory). Appends are line-atomic:
// each record is encoded into a reused line first and only then copied
// onto the buffer, so the buffer only ever grows by whole records (an
// encoding error leaves it untouched) and a simulated crash between
// events leaves a clean prefix. Torn tails — a real crash mid-write() —
// are the reader's job: an incomplete final line is discarded and
// reported as truncation, while a checksum or grammar failure on a
// *complete* line is corruption, reported with the record index.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "journal/record.hpp"

namespace flotilla::journal {

class Writer {
 public:
  // Each append encodes one record (checksummed, '\n'-terminated) and
  // returns its line, valid until the next append. A record that cannot be
  // encoded raises util::Error and leaves bytes() and records() as they
  // were.
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

  const std::string& bytes() const { return bytes_; }
  std::size_t records() const { return records_; }

 private:
  std::string_view commit() {
    bytes_ += line_;
    ++records_;
    return line_;
  }

  std::string bytes_;
  std::size_t records_ = 0;
  // The line being appended, reused so encoding allocates nothing. Encoding
  // straight into bytes_ would save the copy, but it shifts where the
  // buffer's capacity doubling starts (from the header's length), and with
  // it peak memory: 119 to 170 MB on the service_journal benchmark when
  // measured on the v=1 format, not re-measured since (docs/recovery.md).
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
