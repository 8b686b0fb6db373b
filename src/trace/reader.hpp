// Binary trace deserialisation with bounds checking.
//
// Truncated or corrupt files come back as Status errors, never UB —
// the parser is routinely pointed at files from interrupted runs.
//
// Two entry points share one implementation:
//
//   * read_trace / read_trace_file materialise the whole trace (tests,
//     the collector's wire frames). read_trace_file additionally rejects
//     trailing bytes after the last section — a healthy pipeline never
//     writes them.
//   * TraceStreamReader streams the bulk sections in bounded batches
//     through the same 256 KiB staged chunk reader, so a consumer can
//     analyse a trace far larger than RAM (src/pipeline builds on it).
#pragma once

#include <istream>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "trace/trace.hpp"

namespace tempest {
class WorkerPool;
}

namespace tempest::trace {

/// The two small bulk sections, read ahead of the event section.
struct SectionsAhead {
  std::vector<TempSample> temp_samples;
  std::vector<ClockSync> clock_syncs;
};

/// Incremental trace-v2 reader. `open` consumes the fixed header and
/// the (small) metadata sections eagerly; the three bulk sections are
/// then drained strictly in file order — fn events, temp samples,
/// clock syncs — in caller-bounded batches. Each next_* call appends
/// up to `max_records` records of its section to `out` and returns the
/// number appended; 0 means the section is exhausted (or not yet
/// reached / already passed — the calls are safe to issue in the
/// canonical order with no extra bookkeeping).
///
/// The reader never allocates more than one staging chunk plus the
/// caller's batch, regardless of the counts claimed by the file.
class TraceStreamReader {
 public:
  TraceStreamReader(TraceStreamReader&&) = default;
  TraceStreamReader& operator=(TraceStreamReader&&) = default;

  static Result<TraceStreamReader> open(std::istream& in);

  const TraceHeader& header() const { return header_; }

  Status next_fn_events(std::vector<FnEvent>* out, std::size_t max_records,
                        std::size_t* appended);
  Status next_temp_samples(std::vector<TempSample>* out, std::size_t max_records,
                           std::size_t* appended);
  Status next_clock_syncs(std::vector<ClockSync>* out, std::size_t max_records,
                          std::size_t* appended);

  /// True once every bulk section has been drained.
  bool done() const;

  /// Decode the staged record chunks on `pool`'s workers instead of the
  /// calling thread (nullptr restores serial decode). Purely a decode
  /// fan-out: stream reads stay on the caller and records land in `out`
  /// at the same positions, so the produced batches are byte-identical
  /// to serial. When a pool is set the staging chunk grows with the
  /// worker count so each slice stays worth a hand-off.
  void set_decode_pool(WorkerPool* pool) { decode_pool_ = pool; }

  /// Read the whole sample and clock-sync sections without consuming the
  /// stream position, by seeking over the event payload (its framing
  /// gives the exact byte size) and back. Only valid on seekable streams
  /// and before any bulk section has been touched. The streaming
  /// pipeline's pre-pass uses it to fit clocks and to emit the samples
  /// ahead of the events; both sections are small next to the events.
  Result<SectionsAhead> read_ahead();

  /// After done(): OK on clean EOF, error naming the trailing byte
  /// count otherwise (concatenated or partially overwritten file).
  Status expect_eof();

 private:
  explicit TraceStreamReader(std::istream& in) : in_(&in) {}

  /// `unpack_bulk(src, n, dst)` converts `n` packed records at once
  /// (src/trace/codec.hpp) and returns false on a corrupt record.
  template <typename Record, typename UnpackFn>
  Status next_section(int section, std::uint32_t record_size, const char* what,
                      std::vector<Record>* out, std::size_t max_records,
                      std::size_t* appended, UnpackFn unpack_bulk);
  Status read_section_frame(std::uint32_t expected_record_size, const char* what);

  /// Invoked once when the last bulk section completes: parse the
  /// optional trailers (RUNSTATS into header_.run_stats, FLTR into
  /// header_.filter), dispatching on their 4-byte markers until the
  /// peeked bytes match none. A missing marker is not an error
  /// (pre-RUNSTATS trace, or unrelated trailing bytes — the stream
  /// position is restored so expect_eof still counts them exactly); a
  /// present marker with bad framing is. Non-seekable streams skip the
  /// probe and report the trailers absent, because a failed match could
  /// not give the bytes back.
  Status try_read_runstats();
  Status read_runstats_trailer();
  Status read_filter_trailer();

  std::istream* in_;
  TraceHeader header_;
  WorkerPool* decode_pool_ = nullptr;  ///< optional parallel record decode
  std::uint64_t stream_bound_ = 0;  ///< byte bound for reserve sizing
  int section_ = 0;                 ///< 0 events, 1 samples, 2 syncs, 3 done
  bool frame_read_ = false;         ///< current section's framing consumed
  std::uint64_t remaining_ = 0;     ///< records left in the current section
  std::uint64_t section_count_ = 0; ///< declared record count (diagnostics)
};

/// Materialise a whole trace from a stream. Tolerates trailing bytes
/// (the stream may carry more than one payload; tempest-lint reports
/// them as a finding instead).
Result<Trace> read_trace(std::istream& in);

/// Materialise a whole trace file. Unlike the stream overload this
/// rejects trailing bytes after the last section with an actionable
/// error — a lone trace file has exactly one well-formed payload.
Result<Trace> read_trace_file(const std::string& path);

}  // namespace tempest::trace
