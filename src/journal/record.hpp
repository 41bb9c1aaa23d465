// Journal record model + byte-stable codec (docs/recovery.md).
//
// A journal is an append-only sequence of text records, one per line,
// recording everything the control plane must not lose across a crash:
// the run's identity (header), pilot readiness, every task lifecycle
// edge, every node capacity change, every injected fault, and the final
// summary. The codec is deterministic down to the byte — fixed-precision
// times, fixed field order — so the same seed always produces the same
// journal bytes (the recovery oracle in src/check compares journals
// bit-for-bit, like the .prof exporter's byte-identity guarantee).
//
// The format is v=2. Every line but the header is a one-character tag,
// the fields every record of that tag has (positional, no key), then the
// optional fields that hold something other than their default
// ("k=value", one-character keys, fixed order), then the checksum:
//
//   t|62.267854373|100|5|b=dragon|a=1|582eaabb
//
// is task 100 (core::Task::id()) entering state 5 (RUNNING, see
// state_code) on dragon in its first attempt. A task edge does not carry
// the state it left: that is the task's previous edge's state, which
// StateImage keeps (recovery.hpp). The header keeps the shape every
// journal version shares, journal|v=N|seed=S|spec=X|h=XXXXXXXX, so a
// reader can tell a journal's version before anything else about it.
//
// There is one encoder, a line writer in record.cpp. Record::encode_to()
// and the field-level encode_transition() and encode_alloc() (which the
// scribe calls so that no Record is built per task edge or node change)
// share it. It checks and sizes every field first, then sizes the
// caller-owned line once and writes each field straight into it, folding
// each byte into the checksum as it goes, so a reused buffer makes
// encoding allocation-free. Times are printed as printf "%.9f" would:
// below 2^64 ns by exact integer arithmetic on the double's mantissa and
// exponent, above that by std::to_chars fixed with 9 decimals, which the
// standard defines as the same text. Integers go through std::to_chars,
// the checksum as 8 lowercase hex digits. The reader accepts exactly that
// time form back: (0|[1-9][0-9]*)\.[0-9]{9}, finite (journal.hpp).
//
// Every line carries a trailing FNV-1a-32 checksum; the reader uses it to
// distinguish a torn tail (a crash mid-write: the partial final line is
// discarded and reported) from mid-stream corruption (a hard error with
// the record index).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "core/task.hpp"
#include "sim/engine.hpp"

namespace flotilla::journal {

enum class RecordType : std::uint8_t {
  kHeader,      // run identity: seed + the serialized scenario/config line
  kReady,       // pilot reported ready; recovery clocks makespan from here
  kTransition,  // one task lifecycle edge (task, to, backend, attempt)
  kAlloc,       // node free-capacity delta (negative = allocation)
  kFault,       // an injected fault fired (crash / cancel storm)
  kEnd,         // terminal summary; present only on uninterrupted runs
};

// Stable name ("journal", "ready", "task", "alloc", "fault", "end"), which
// the scribe's trace instants carry.
std::string_view to_string(RecordType type);

// Wire tag: "journal" for the header, else one character ("r", "t", "a",
// "f", "e").
constexpr std::string_view wire_tag(RecordType type) {
  switch (type) {
    case RecordType::kHeader:
      return "journal";
    case RecordType::kReady:
      return "r";
    case RecordType::kTransition:
      return "t";
    case RecordType::kAlloc:
      return "a";
    case RecordType::kFault:
      return "f";
    case RecordType::kEnd:
      return "e";
  }
  return "?";
}

// The format version this build writes and reads.
inline constexpr std::int64_t kVersion = 2;

// The one-character wire code of a task state: its ordinal as a digit,
// '0' (NEW) to '9' (CANCELED).
char state_code(core::TaskState state);

// One journal record: the type, the time, the integers of its type
// overlaid in one union, and two text fields. encode()/decode() only
// read/write the fields of the record's type, in a fixed order, so the
// line grammar stays canonical. A recovery holds its whole journal prefix
// as Records, so the struct is kept small (static_assert in record.cpp).
struct Record {
  RecordType type = RecordType::kTransition;

  sim::Time time = 0.0;  // virtual time; unused for kHeader

  // kTransition: task `task` entered state `to` in attempt `attempt`.
  struct Edge {
    core::TaskId task;
    core::TaskState to;
    std::int64_t attempt;
  };
  // kAlloc: change of free capacity on `node` (negative = claimed).
  struct Alloc {
    std::int64_t node;
    std::int64_t cores;
    std::int64_t gpus;
  };
  // kFault: a crash of partition/instance `index`, or a cancel storm of
  // `count` tasks.
  struct Fault {
    std::int64_t index;
    std::int64_t count;
  };
  // kEnd: the run's summary.
  struct End {
    std::int64_t done;
    std::int64_t failed;
    std::int64_t canceled;
    std::uint64_t events;
  };
  // Only the member of the record's type is live; the record constructors
  // below and read() set it. kReady has none.
  union {
    std::uint64_t seed;  // kHeader
    Edge edge;
    Alloc alloc;
    Fault fault;
    End end{};  // the widest member, so every byte starts at zero
  };

  // kTransition's backend, and kFault's crash target.
  std::string backend;
  // kHeader: the serialized ScenarioSpec / tool config line. kFault: the
  // fault kind, "crash" | "cancel".
  std::string text;

  // Overwrites `out` with one '\n'-terminated line with a trailing
  // checksum field, reusing its capacity. Raises util::Error if any string
  // field contains '|' or '\n' (the journal is single-line records by
  // construction) or the time cannot be encoded (append_time).
  void encode_to(std::string& out) const;

  // Whether `line`, a line this encoder wrote (Writer::append*), is this
  // record's encoding. Such a line's checksum follows from the bytes before
  // it, so only those are encoded, into the reused `scratch`, and compared:
  // recovery validates each replayed line this way. Raises as encode_to().
  bool encoded_as(std::string_view line, std::string& scratch) const;

  // encode_to() into a fresh string.
  std::string encode() const {
    std::string line;
    encode_to(line);
    return line;
  }

  // Two records are equal iff their canonical encodings are equal.
  friend bool operator==(const Record& a, const Record& b) {
    return a.encode() == b.encode();
  }
};

// Convenience constructors for the record kinds the scribe emits.
Record header_record(std::uint64_t seed, std::string spec);
Record ready_record(sim::Time time);
Record transition_record(sim::Time time, core::TaskId task,
                         core::TaskState to, std::string backend,
                         std::int64_t attempt);
Record alloc_record(sim::Time time, std::int64_t node, std::int64_t cores,
                    std::int64_t gpus);
Record fault_record(sim::Time time, std::string kind, std::string backend,
                    std::int64_t index, std::int64_t count);
Record end_record(sim::Time time, std::int64_t done, std::int64_t failed,
                  std::int64_t canceled, std::uint64_t events);

// The field-level encoder behind Record::encode_to() for the most frequent
// record, a task lifecycle edge: overwrites `out` with exactly the line
// transition_record(time, task, ...) would encode to.
void encode_transition(std::string& out, sim::Time time, core::TaskId task,
                       core::TaskState to, std::string_view backend,
                       std::int64_t attempt);

// The field-level encoder of a node capacity change: overwrites `out` with
// exactly the line alloc_record(time, node, cores, gpus) would encode to.
void encode_alloc(std::string& out, sim::Time time, std::int64_t node,
                  std::int64_t cores, std::int64_t gpus);

// Longest time field the codec writes: "%.9f" of any time below 1e54.
inline constexpr std::size_t kMaxTimeChars = 64;

// Appends `time` in the canonical form, the text of printf "%.9f" (see
// the header comment for how it is computed). Raises util::Error for a
// time the reader would not take back: negative, not finite, or longer
// than kMaxTimeChars.
void append_time(std::string& out, sim::Time time);

// FNV-1a 32-bit over `text`, the per-line checksum primitive.
std::uint32_t fnv1a32(std::string_view text);

// FNV-1a 32-bit one byte at a time, for the encoder and the decoder, which
// fold each byte in as they pass it: fnv1a32(text + c) is
// fnv1a32_fold(fnv1a32(text), c), and fnv1a32("") is kFnvOffset.
inline constexpr std::uint32_t kFnvOffset = 2166136261u;
constexpr std::uint32_t fnv1a32_fold(std::uint32_t hash, char c) {
  return (hash ^ static_cast<unsigned char>(c)) * 16777619u;
}

}  // namespace flotilla::journal
