// Binary trace deserialisation with bounds checking.
//
// Truncated or corrupt files come back as Status errors, never UB —
// the parser is routinely pointed at files from interrupted runs.
//
// TraceStreamReader is the one place that knows the file layout. Every
// consumer runs the same sequence: open() reads the header and the
// metadata into one buffer, in 64 KiB steps and never past the bytes
// the input holds, and parses them from memory (the trailers likewise),
// then one pre-pass reads everything but the event payload —
// the sample and clock-sync sections, the optional RUNSTATS and FLTR
// trailers, and the count of bytes left after them. So the header is
// complete, or the input rejected, before the first event batch; after
// that only the events stream, in bounded batches through the same
// 256 KiB staged section decoder the pre-pass used, so a consumer can
// analyse a trace far larger than RAM (src/pipeline builds on it).
// read_trace / read_trace_file materialise a whole trace through it.
//
// The reader gets its bytes by offset through common::ByteInput: from
// a caller's buffer (a collector META frame, a test), or by pread from
// a file, which must be a regular file — a FIFO or a directory fails at
// once with "<path>: not a regular file".
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/byte_input.hpp"
#include "common/status.hpp"
#include "trace/trace.hpp"

namespace tempest {
class WorkerPool;
}

namespace tempest::trace {

/// Incremental trace-v2 reader. It keeps the offset of its next read,
/// so the pre-pass steps over the event payload by the size its framing
/// gives (count x 23 bytes) and the events then stream from where they
/// start.
///
/// The reader never allocates more than one staging chunk plus the
/// caller's batch for the events, and never more than the bytes the
/// input holds for the metadata and the small sections, whatever counts
/// the file claims.
class TraceStreamReader {
 public:
  TraceStreamReader(TraceStreamReader&&) = default;

  /// Read `bytes`, which must outlive the reader.
  static Result<TraceStreamReader> open(std::string_view bytes);
  /// Read the file at `path`. Every error the reader reports, from here
  /// or from a later batch, starts with "<path>: " — an unopenable file
  /// is "<path>: cannot open trace file", and anything but a regular
  /// file "<path>: not a regular file".
  static Result<TraceStreamReader> open_file(const std::string& path);

  /// Metadata and trailers, complete from open() on.
  const TraceHeader& header() const { return header_; }

  /// The sample and clock-sync sections, read by the pre-pass in file
  /// order. Callers may move them out.
  std::vector<TempSample>& temp_samples() { return temp_samples_; }
  std::vector<ClockSync>& clock_syncs() { return clock_syncs_; }

  /// Bytes after the last section and trailer. A healthy recorder
  /// writes none; tempest-lint reports them as a finding.
  std::uint64_t trailing_bytes() const { return trailing_bytes_; }
  /// OK without trailing bytes, else an error naming their count
  /// (concatenated or partially overwritten file).
  Status expect_eof() const;

  /// Append up to `max_records` fn events to `out` in file order and
  /// set *appended to their count; 0 once the section is exhausted.
  Status next_fn_events(std::vector<FnEvent>* out, std::size_t max_records,
                        std::size_t* appended);

  /// Decode the staged event chunks on `pool`'s workers instead of the
  /// calling thread (nullptr restores serial decode). Purely a decode
  /// fan-out: reads stay on the caller and records land in `out`
  /// at the same positions, so the produced batches are byte-identical
  /// to serial. When a pool is set the staging chunk grows with the
  /// worker count so each slice stays worth a hand-off.
  void set_decode_pool(WorkerPool* pool) { decode_pool_ = pool; }

 private:
  /// `name` prefixes every error: "<path>: " for file readers.
  TraceStreamReader(common::ByteInput input, std::string name)
      : input_(std::move(input)), name_(std::move(name)) {}

  Status read_header();
  Status read_ahead();
  /// Copy the `n` bytes at the read offset into `out` and move past
  /// them; false, not moving, when the input holds fewer.
  bool take(void* out, std::uint64_t n);
  /// take() of one little-endian field.
  template <typename T>
  bool take_le(T* out);
  /// Reads one section's framing; rejects a count above the cap or
  /// beyond the bytes left.
  Status read_section_frame(std::uint32_t record_size, const char* what,
                            std::uint64_t* count);
  /// Decodes the next `n` records of the current section into `out`
  /// through the staging chunks. `unpack_bulk(src, n, dst)` converts
  /// `n` packed records at once (src/trace/codec.hpp) and returns false
  /// on a corrupt record.
  template <typename Record, typename UnpackFn>
  Status decode(std::uint64_t n, std::uint32_t record_size, const char* what,
                std::vector<Record>* out, UnpackFn unpack_bulk);
  /// Each optional trailer is self-describing by its 4-byte marker;
  /// reading stops at the first bytes that are no marker, which then
  /// count as trailing bytes. A marker with bad framing is an error.
  Status read_trailers();
  /// `message`, prefixed with the path for file readers.
  Status fail(const std::string& message) const;

  common::ByteInput input_;
  std::uint64_t pos_ = 0;  ///< offset of the next byte to read
  std::string name_;
  TraceHeader header_;
  std::vector<TempSample> temp_samples_;
  std::vector<ClockSync> clock_syncs_;
  std::uint64_t trailing_bytes_ = 0;
  WorkerPool* decode_pool_ = nullptr;  ///< optional parallel record decode
  std::uint64_t events_left_ = 0;      ///< fn events not yet read
};

/// Materialise a whole trace from bytes in memory. Tolerates trailing
/// bytes (the buffer may carry more than one payload; tempest-lint
/// reports them as a finding instead).
Result<Trace> read_trace(std::string_view bytes);

/// Materialise a whole trace file. Unlike the in-memory overload this
/// rejects trailing bytes after the last section with an actionable
/// error — a lone trace file has exactly one well-formed payload.
Result<Trace> read_trace_file(const std::string& path);

}  // namespace tempest::trace
