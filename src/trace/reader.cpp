#include "trace/reader.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <vector>

#include "common/worker_pool.hpp"
#include "trace/codec.hpp"
#include "trace/writer.hpp"

namespace tempest::trace {
namespace {

/// Fields parsed out of one buffer that fills from the input at
/// `offset` in 64 KiB steps and never past the bytes the input holds:
/// the metadata and the trailers cost a few bulk reads, not a read per
/// field, and a count or length the file lies about meets the end of
/// the input before it meets an allocation.
class BulkCursor {
 public:
  BulkCursor(const common::ByteInput& in, std::uint64_t offset)
      : in_(in), offset_(offset), available_(in.size() - offset) {}

  /// One little-endian field.
  template <typename T>
  bool get(T* out) {
    if (!fill(sizeof(T))) return false;
    *out = codec::load_le<T>(buf_.data() + pos_);
    pos_ += sizeof(T);
    return true;
  }

  bool get_string(std::string* out) {
    std::uint32_t len = 0;
    if (!get(&len) || len > kMaxString || !fill(len)) return false;
    out->assign(buf_.data() + pos_, len);
    pos_ += len;
    return true;
  }

  /// True only when all `n` bytes arrived.
  bool get_bytes(char* out, std::size_t n) {
    if (!fill(n)) return false;
    std::memcpy(out, buf_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  /// Bytes parsed so far, and the input's bytes after them.
  std::uint64_t consumed() const { return pos_; }
  std::uint64_t left() const { return available_ - pos_; }

 private:
  static constexpr std::uint32_t kMaxString = 1 << 20;
  static constexpr std::uint64_t kStep = std::uint64_t{64} << 10;

  /// True once the `n` bytes after the cursor are buffered. A file
  /// that ends before the step does (it was cut while read) ends the
  /// input at the bytes already buffered.
  bool fill(std::uint64_t n) {
    if (n <= buf_.size() - pos_) return true;
    if (n > available_ - pos_) return false;
    const std::size_t have = buf_.size();
    buf_.resize(static_cast<std::size_t>(
        std::min(available_, (pos_ + n + kStep - 1) / kStep * kStep)));
    if (!in_.read(offset_ + have, buf_.size() - have, buf_.data() + have)) {
      buf_.resize(have);
      available_ = have;
    }
    return n <= buf_.size() - pos_;
  }

  const common::ByteInput& in_;
  std::uint64_t offset_;  ///< where in the input the buffer starts
  std::uint64_t available_;
  std::vector<char> buf_;
  std::size_t pos_ = 0;
};

bool unpack_samples(const char* src, std::size_t n, TempSample* dst) {
  codec::unpack_temp_samples(src, n, dst);
  return true;
}

bool unpack_syncs(const char* src, std::size_t n, ClockSync* dst) {
  codec::unpack_clock_syncs(src, n, dst);
  return true;
}

Status read_runstats_trailer(BulkCursor* cur, RunStats* out) {
  std::uint32_t record_size = 0;
  // Legacy 15-field records predate the admission pipeline; their
  // admission counters stay zero (value-initialised payload).
  char payload[kRunStatsRecordSize] = {};
  if (!cur->get(&record_size) ||
      (record_size != kRunStatsRecordSize &&
       record_size != kRunStatsRecordSizeLegacy)) {
    return Status::error("runstats record size mismatch (corrupt trailer)");
  }
  if (!cur->get_bytes(payload, record_size)) {
    return Status::error("truncated runstats trailer");
  }
  RunStats& rs = *out;
  const char* p = payload;
  rs.events_recorded = codec::load_le<std::uint64_t>(p); p += 8;
  rs.events_dropped = codec::load_le<std::uint64_t>(p); p += 8;
  rs.buffer_flushes = codec::load_le<std::uint64_t>(p); p += 8;
  rs.threads_registered = codec::load_le<std::uint64_t>(p); p += 8;
  rs.tempd_ticks = codec::load_le<std::uint64_t>(p); p += 8;
  rs.tempd_missed_ticks = codec::load_le<std::uint64_t>(p); p += 8;
  rs.tempd_samples = codec::load_le<std::uint64_t>(p); p += 8;
  rs.tempd_read_errors = codec::load_le<std::uint64_t>(p); p += 8;
  rs.sensor_read_failures = codec::load_le<std::uint64_t>(p); p += 8;
  rs.heartbeats = codec::load_le<std::uint64_t>(p); p += 8;
  rs.peak_rss_kb = codec::load_le<std::uint64_t>(p); p += 8;
  rs.wall_seconds = codec::load_le<double>(p); p += 8;
  rs.tempd_cpu_seconds = codec::load_le<double>(p); p += 8;
  rs.probe_cost_ns_mean = codec::load_le<double>(p); p += 8;
  rs.cadence_jitter_us_mean = codec::load_le<double>(p); p += 8;
  rs.events_suppressed = codec::load_le<std::uint64_t>(p); p += 8;
  rs.events_throttled = codec::load_le<std::uint64_t>(p); p += 8;
  rs.events_overwritten = codec::load_le<std::uint64_t>(p); p += 8;
  rs.calls_observed = codec::load_le<std::uint64_t>(p); p += 8;
  rs.ring_snapshots = codec::load_le<std::uint64_t>(p);
  rs.present = true;
  return Status::ok();
}

Status read_filter_trailer(BulkCursor* cur, FilterDecl* out) {
  char resolved_buf[8];
  FilterDecl& fd = *out;
  if (!cur->get_bytes(resolved_buf, sizeof(resolved_buf))) {
    return Status::error("truncated filter trailer");
  }
  fd.resolved = codec::load_le<std::uint64_t>(resolved_buf);
  std::uint32_t count = 0;
  if (!cur->get_string(&fd.source) || !cur->get(&count)) {
    return Status::error("truncated filter trailer");
  }
  // Each name takes at least its 4-byte length.
  if (count > (1u << 20) || count > cur->left() / 4) {
    return Status::error("filter trailer symbol count implausible (corrupt)");
  }
  fd.suppressed.clear();
  fd.suppressed.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!cur->get_string(&fd.suppressed[i])) {
      return Status::error("truncated filter trailer symbol");
    }
  }
  fd.present = true;
  return Status::ok();
}

// A corrupt count field must fail before anything is allocated for it:
// every section's count is checked against the bytes actually present,
// and its records stream through a bounded staging buffer. Metadata
// reserves are capped by kReserveCap.
constexpr std::uint64_t kMaxRecords = 1ULL << 32;
constexpr std::uint64_t kReserveCap = 1ULL << 16;
constexpr std::size_t kStagingBytes = std::size_t{256} << 10;  // match writer.cpp

// Records per decode slice when a worker pool is attached; below this a
// hand-off costs more than the conversion it parallelises.
constexpr std::size_t kDecodeSliceRecords = 4096;

}  // namespace

Result<TraceStreamReader> TraceStreamReader::open(std::string_view bytes) {
  TraceStreamReader reader(common::ByteInput(bytes), "");
  const Status read = reader.read_header();
  if (!read) return Result<TraceStreamReader>::error(read.message());
  return reader;
}

Result<TraceStreamReader> TraceStreamReader::open_file(const std::string& path) {
  TraceStreamReader reader(common::ByteInput(path, path + ": cannot open trace file"),
                           path + ": ");
  if (!reader.input_.opened()) {
    return Result<TraceStreamReader>::error(reader.input_.opened().message());
  }
  const Status read = reader.read_header();
  if (!read) return Result<TraceStreamReader>::error(read.message());
  return reader;
}

Status TraceStreamReader::fail(const std::string& message) const {
  return Status::error(name_ + message);
}

bool TraceStreamReader::take(void* out, std::uint64_t n) {
  if (!input_.read(pos_, n, out)) return false;
  pos_ += n;
  return true;
}

template <typename T>
bool TraceStreamReader::take_le(T* out) {
  char bytes[sizeof(T)];
  if (!take(bytes, sizeof(bytes))) return false;
  *out = codec::load_le<T>(bytes);
  return true;
}

Status TraceStreamReader::read_header() {
  // The header and metadata parse out of one bulk buffer; the first
  // section starts just past them. The input's size bounds every count.
  BulkCursor cur(input_, 0);
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  if (!cur.get(&magic) || magic != kTraceMagic) {
    return fail("not a Tempest trace (bad magic)");
  }
  if (!cur.get(&version)) return fail("truncated trace header (no version)");
  if (version != kTraceVersion) {
    return fail("unsupported trace version " + std::to_string(version) +
                " (this build reads version " + std::to_string(kTraceVersion) +
                "; re-record the trace with a matching Tempest build)");
  }
  TraceHeader& h = header_;
  if (!cur.get(&h.tsc_ticks_per_second) || !cur.get_string(&h.executable) ||
      !cur.get(&h.load_bias)) {
    return fail("truncated trace header");
  }

  std::uint32_t n32 = 0;
  if (!cur.get(&n32)) return fail("truncated node section");
  h.nodes.reserve(std::min<std::uint64_t>(n32, kReserveCap));
  for (std::uint32_t i = 0; i < n32; ++i) {
    NodeInfo n;
    if (!cur.get(&n.node_id) || !cur.get_string(&n.hostname)) {
      return fail("truncated node record");
    }
    h.nodes.push_back(std::move(n));
  }

  if (!cur.get(&n32)) return fail("truncated sensor section");
  h.sensors.reserve(std::min<std::uint64_t>(n32, kReserveCap));
  for (std::uint32_t i = 0; i < n32; ++i) {
    SensorMeta s;
    if (!cur.get(&s.node_id) || !cur.get(&s.sensor_id) || !cur.get(&s.quant_step_c) ||
        !cur.get_string(&s.name)) {
      return fail("truncated sensor record");
    }
    h.sensors.push_back(std::move(s));
  }

  if (!cur.get(&n32)) return fail("truncated thread section");
  h.threads.reserve(std::min<std::uint64_t>(n32, kReserveCap));
  for (std::uint32_t i = 0; i < n32; ++i) {
    ThreadInfo t;
    if (!cur.get(&t.thread_id) || !cur.get(&t.node_id) || !cur.get(&t.core)) {
      return fail("truncated thread record");
    }
    h.threads.push_back(t);
  }

  if (!cur.get(&n32)) return fail("truncated synthetic-symbol section");
  h.synthetic_symbols.reserve(std::min<std::uint64_t>(n32, kReserveCap));
  for (std::uint32_t i = 0; i < n32; ++i) {
    SyntheticSymbol s;
    if (!cur.get(&s.addr) || !cur.get_string(&s.name)) {
      return fail("truncated synthetic symbol");
    }
    h.synthetic_symbols.push_back(std::move(s));
  }
  pos_ = cur.consumed();
  return read_ahead();
}

Status TraceStreamReader::read_ahead() {
  std::uint64_t events = 0;
  Status read = read_section_frame(kFnEventRecordSize, "fn event", &events);
  if (!read) return read;
  // The framing bounded the payload by the bytes present, so the sample
  // section starts exactly past it.
  const std::uint64_t events_at = pos_;
  pos_ += events * kFnEventRecordSize;
  std::uint64_t count = 0;
  read = read_section_frame(kTempSampleRecordSize, "temp sample", &count);
  if (read) {
    read = decode(count, kTempSampleRecordSize, "temp sample", &temp_samples_,
                  unpack_samples);
  }
  if (read) read = read_section_frame(kClockSyncRecordSize, "clock sync", &count);
  if (read) {
    read = decode(count, kClockSyncRecordSize, "clock sync", &clock_syncs_,
                  unpack_syncs);
  }
  if (read) read = read_trailers();
  if (!read) return read;
  pos_ = events_at;
  events_left_ = events;
  return Status::ok();
}

Status TraceStreamReader::read_section_frame(std::uint32_t record_size,
                                             const char* what,
                                             std::uint64_t* count) {
  std::uint32_t size = 0;
  if (!take_le(count) || *count > kMaxRecords) {
    return fail(std::string("truncated or oversized ") + what + " section");
  }
  if (!take_le(&size) || size != record_size) {
    return fail(std::string(what) + " record size mismatch (corrupt section framing)");
  }
  const std::uint64_t present = (input_.size() - pos_) / record_size;
  if (*count > present) {
    return fail(std::string("truncated ") + what + " section (file claims " +
                std::to_string(*count) + " records but ends after " +
                std::to_string(present) + ")");
  }
  return Status::ok();
}

template <typename Record, typename UnpackFn>
Status TraceStreamReader::decode(std::uint64_t n, std::uint32_t record_size,
                                 const char* what, std::vector<Record>* out,
                                 UnpackFn unpack_bulk) {
  // The framing check bounded n by the bytes present: reserve exactly.
  out->reserve(out->size() + static_cast<std::size_t>(n));
  // With a decode pool the staging chunk scales with the worker count
  // (capped at 4 MiB) so every worker gets a slice worth converting.
  const std::size_t staging_budget =
      decode_pool_ == nullptr
          ? kStagingBytes
          : std::min<std::size_t>(kStagingBytes * decode_pool_->size(),
                                  std::size_t{4} << 20);
  const std::size_t per_chunk =
      std::max<std::size_t>(1, staging_budget / record_size);
  std::vector<char> staging;
  for (std::uint64_t left = n; left > 0;) {
    const std::size_t k = static_cast<std::size_t>(
        std::min<std::uint64_t>(per_chunk, left));
    staging.resize(k * record_size);
    if (!take(staging.data(), staging.size())) {
      return fail(std::string("truncated ") + what + " section");
    }
    // Chunk-wise resize keeps growth geometric while skipping the
    // per-record capacity check push_back would pay; on a rejected
    // record the partially-filled vector is discarded with the trace.
    const std::size_t base = out->size();
    out->resize(base + k);
    Record* recs = out->data() + base;
    const char* bytes = staging.data();
    bool record_ok;
    if (decode_pool_ != nullptr && k >= kDecodeSliceRecords * 2) {
      // Slices convert disjoint [begin, end) ranges of the same chunk;
      // corruption anywhere poisons the whole chunk, same as serial.
      std::atomic<bool> ok{true};
      decode_pool_->for_slices(
          k, kDecodeSliceRecords,
          [&](std::size_t b, std::size_t e) {
            if (!unpack_bulk(bytes + b * record_size, e - b, recs + b)) {
              ok.store(false, std::memory_order_relaxed);
            }
          });
      record_ok = ok.load(std::memory_order_relaxed);
    } else {
      record_ok = unpack_bulk(bytes, k, recs);
    }
    if (!record_ok) return fail(std::string("corrupt ") + what + " record");
    left -= k;
  }
  return Status::ok();
}

Status TraceStreamReader::read_trailers() {
  BulkCursor cur(input_, pos_);
  for (;;) {
    // Bytes after the last trailer that start no marker are trailing
    // bytes.
    trailing_bytes_ = cur.left();
    if (trailing_bytes_ < 4) return Status::ok();
    char marker_buf[4];
    if (!cur.get_bytes(marker_buf, sizeof(marker_buf))) {
      return fail("truncated trailer marker");
    }
    const std::uint32_t marker = codec::load_le<std::uint32_t>(marker_buf);
    Status parsed = Status::ok();
    if (marker == kRunStatsMarker) {
      parsed = read_runstats_trailer(&cur, &header_.run_stats);
    } else if (marker == kFilterMarker) {
      parsed = read_filter_trailer(&cur, &header_.filter);
    } else {
      return Status::ok();  // someone else's bytes: not a trailer
    }
    if (!parsed) return fail(parsed.message());
  }
}

Status TraceStreamReader::expect_eof() const {
  if (trailing_bytes_ == 0) return Status::ok();
  return fail(std::to_string(trailing_bytes_) +
              " trailing byte(s) after the last trace section "
              "(concatenated or partially overwritten file?)");
}

Status TraceStreamReader::next_fn_events(std::vector<FnEvent>* out,
                                         std::size_t max_records,
                                         std::size_t* appended) {
  const std::uint64_t n = std::min<std::uint64_t>(events_left_, max_records);
  *appended = 0;
  if (n == 0) return Status::ok();
  const Status read = decode(n, kFnEventRecordSize, "fn event", out,
                             codec::unpack_fn_events);
  if (!read) return read;
  events_left_ -= n;
  *appended = static_cast<std::size_t>(n);
  return Status::ok();
}

namespace {

/// The whole trace behind an opened reader; `lone_payload` rejects
/// trailing bytes.
Result<Trace> materialise(Result<TraceStreamReader> opened, bool lone_payload) {
  if (!opened.is_ok()) return Result<Trace>::error(opened.message());
  TraceStreamReader reader = std::move(opened).value();
  Status read = lone_payload ? reader.expect_eof() : Status::ok();
  Trace trace;
  static_cast<TraceHeader&>(trace) = reader.header();
  trace.temp_samples = std::move(reader.temp_samples());
  trace.clock_syncs = std::move(reader.clock_syncs());
  std::size_t appended = 0;
  if (read) {
    read = reader.next_fn_events(&trace.fn_events,
                                 std::numeric_limits<std::size_t>::max(), &appended);
  }
  if (!read) return Result<Trace>::error(read.message());
  return trace;
}

}  // namespace

Result<Trace> read_trace(std::string_view bytes) {
  return materialise(TraceStreamReader::open(bytes), false);
}

Result<Trace> read_trace_file(const std::string& path) {
  return materialise(TraceStreamReader::open_file(path), true);
}

}  // namespace tempest::trace
