#include "trace/reader.hpp"

#include <atomic>
#include <bit>
#include <fstream>
#include <limits>
#include <vector>

#include "common/worker_pool.hpp"
#include "trace/codec.hpp"
#include "trace/writer.hpp"

namespace tempest::trace {
namespace {

class Cursor {
 public:
  explicit Cursor(std::istream& in) : in_(in) {}

  template <typename T>
  bool get(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    in_.read(reinterpret_cast<char*>(out), sizeof(T));
    return static_cast<bool>(in_);
  }

  bool get_string(std::string* out) {
    std::uint32_t len = 0;
    if (!get(&len)) return false;
    if (len > kMaxString) return false;
    out->resize(len);
    in_.read(out->data(), len);
    return static_cast<bool>(in_);
  }

  /// Bulk read: true only when all `n` bytes arrived.
  bool get_bytes(char* out, std::size_t n) {
    in_.read(out, static_cast<std::streamsize>(n));
    return static_cast<bool>(in_) &&
           in_.gcount() == static_cast<std::streamsize>(n);
  }

 private:
  static constexpr std::uint32_t kMaxString = 1 << 20;
  std::istream& in_;
};

// Little-endian unpack mirrors of the writer's pack helpers.
inline std::uint16_t unpack_u16(const char* p) {
  return static_cast<std::uint16_t>(
      static_cast<unsigned char>(p[0]) |
      (static_cast<std::uint16_t>(static_cast<unsigned char>(p[1])) << 8));
}

inline std::uint32_t unpack_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

inline std::uint64_t unpack_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

inline double unpack_f64(const char* p) {
  return std::bit_cast<double>(unpack_u64(p));
}

// A corrupt count field must fail at the first missing chunk, not
// allocate count * record_size up front — sections stream through a
// bounded staging buffer and the vector reserve is capped by the bytes
// actually present (seekable streams) or by kReserveCap (pipes).
constexpr std::uint64_t kMaxRecords = 1ULL << 32;
constexpr std::uint64_t kReserveCap = 1ULL << 16;
constexpr std::size_t kStagingBytes = std::size_t{256} << 10;  // match writer.cpp

/// Upper bound on the bytes remaining in a seekable stream, or
/// UINT64_MAX when the stream cannot say (pipes, sockets, custom
/// streambufs). Used only to size vector reserves: with a real bound a
/// well-formed section reserves exactly once instead of doubling its
/// way up, and a corrupt count can never allocate more than the file
/// actually holds.
std::uint64_t remaining_bytes_bound(std::istream& in) {
  const std::istream::pos_type pos = in.tellg();
  if (!in || pos == std::istream::pos_type(-1)) {
    in.clear();
    return UINT64_MAX;
  }
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.clear();
  in.seekg(pos);
  if (!in || end == std::istream::pos_type(-1) || end < pos) {
    in.clear();
    in.seekg(pos);
    return UINT64_MAX;
  }
  return static_cast<std::uint64_t>(end - pos);
}

// Records per decode slice when a worker pool is attached; below this a
// hand-off costs more than the conversion it parallelises.
constexpr std::size_t kDecodeSliceRecords = 4096;

}  // namespace

Result<TraceStreamReader> TraceStreamReader::open(std::istream& in) {
  TraceStreamReader reader(in);
  reader.stream_bound_ = remaining_bytes_bound(in);
  Cursor cur(in);
  std::uint64_t magic = 0;
  std::uint32_t version = 0;

  if (!cur.get(&magic) || magic != kTraceMagic) {
    return Result<TraceStreamReader>::error("not a Tempest trace (bad magic)");
  }
  if (!cur.get(&version)) {
    return Result<TraceStreamReader>::error("truncated trace header (no version)");
  }
  if (version != kTraceVersion) {
    return Result<TraceStreamReader>::error(
        "unsupported trace version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kTraceVersion) +
        "; re-record the trace with a matching Tempest build)");
  }
  TraceHeader& h = reader.header_;
  if (!cur.get(&h.tsc_ticks_per_second) || !cur.get_string(&h.executable) ||
      !cur.get(&h.load_bias)) {
    return Result<TraceStreamReader>::error("truncated trace header");
  }

  std::uint32_t n32 = 0;
  if (!cur.get(&n32)) return Result<TraceStreamReader>::error("truncated node section");
  h.nodes.reserve(std::min<std::uint64_t>(n32, kReserveCap));
  for (std::uint32_t i = 0; i < n32; ++i) {
    NodeInfo n;
    if (!cur.get(&n.node_id) || !cur.get_string(&n.hostname)) {
      return Result<TraceStreamReader>::error("truncated node record");
    }
    h.nodes.push_back(std::move(n));
  }

  if (!cur.get(&n32)) return Result<TraceStreamReader>::error("truncated sensor section");
  h.sensors.reserve(std::min<std::uint64_t>(n32, kReserveCap));
  for (std::uint32_t i = 0; i < n32; ++i) {
    SensorMeta s;
    if (!cur.get(&s.node_id) || !cur.get(&s.sensor_id) || !cur.get(&s.quant_step_c) ||
        !cur.get_string(&s.name)) {
      return Result<TraceStreamReader>::error("truncated sensor record");
    }
    h.sensors.push_back(std::move(s));
  }

  if (!cur.get(&n32)) return Result<TraceStreamReader>::error("truncated thread section");
  h.threads.reserve(std::min<std::uint64_t>(n32, kReserveCap));
  for (std::uint32_t i = 0; i < n32; ++i) {
    ThreadInfo t;
    if (!cur.get(&t.thread_id) || !cur.get(&t.node_id) || !cur.get(&t.core)) {
      return Result<TraceStreamReader>::error("truncated thread record");
    }
    h.threads.push_back(t);
  }

  if (!cur.get(&n32)) {
    return Result<TraceStreamReader>::error("truncated synthetic-symbol section");
  }
  h.synthetic_symbols.reserve(std::min<std::uint64_t>(n32, kReserveCap));
  for (std::uint32_t i = 0; i < n32; ++i) {
    SyntheticSymbol s;
    if (!cur.get(&s.addr) || !cur.get_string(&s.name)) {
      return Result<TraceStreamReader>::error("truncated synthetic symbol");
    }
    h.synthetic_symbols.push_back(std::move(s));
  }

  return reader;
}

Status TraceStreamReader::read_section_frame(std::uint32_t expected_record_size,
                                             const char* what) {
  Cursor cur(*in_);
  std::uint64_t count = 0;
  std::uint32_t record_size = 0;
  if (!cur.get(&count) || count > kMaxRecords) {
    return Status::error(std::string("truncated or oversized ") + what +
                         " section");
  }
  if (!cur.get(&record_size) || record_size != expected_record_size) {
    return Status::error(std::string(what) +
                         " record size mismatch (corrupt section framing)");
  }
  remaining_ = count;
  section_count_ = count;
  frame_read_ = true;
  return Status::ok();
}

template <typename Record, typename UnpackFn>
Status TraceStreamReader::next_section(int section, std::uint32_t record_size,
                                       const char* what, std::vector<Record>* out,
                                       std::size_t max_records,
                                       std::size_t* appended, UnpackFn unpack_bulk) {
  *appended = 0;
  if (section_ != section) {
    // Earlier section: not reached yet; later section: already drained.
    // Either way there is nothing for this call to produce — the
    // canonical drain order issues the calls back to back.
    if (section_ > section) return Status::ok();
    return Status::error(std::string("stream reader: ") + what +
                         " section requested before the preceding section was "
                         "drained");
  }
  if (!frame_read_) {
    const Status frame = read_section_frame(record_size, what);
    if (!frame) return frame;
  }
  if (remaining_ == 0) {
    ++section_;
    frame_read_ = false;
    if (done()) return try_read_runstats();
    return Status::ok();
  }

  const std::uint64_t want = std::min<std::uint64_t>(remaining_, max_records);
  const std::uint64_t fit = stream_bound_ == UINT64_MAX
                                ? kReserveCap
                                : stream_bound_ / record_size;
  out->reserve(out->size() + static_cast<std::size_t>(std::min(want, fit)));

  Cursor cur(*in_);
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
  std::uint64_t left = want;
  while (left > 0) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(per_chunk, left));
    staging.resize(n * record_size);
    if (!cur.get_bytes(staging.data(), staging.size())) {
      return Status::error(std::string("truncated ") + what + " section (file "
                           "claims " + std::to_string(section_count_) +
                           " records but ends after " +
                           std::to_string(section_count_ - remaining_) + ")");
    }
    // Chunk-wise resize keeps growth geometric while skipping the
    // per-record capacity check push_back would pay; on a rejected
    // record the partially-filled vector is discarded with the trace.
    const std::size_t base = out->size();
    out->resize(base + n);
    Record* recs = out->data() + base;
    const char* bytes = staging.data();
    bool record_ok;
    if (decode_pool_ != nullptr && n >= kDecodeSliceRecords * 2) {
      // Slices convert disjoint [begin, end) ranges of the same chunk;
      // corruption anywhere poisons the whole chunk, same as serial.
      std::atomic<bool> ok{true};
      decode_pool_->for_slices(
          n, kDecodeSliceRecords,
          [&](std::size_t b, std::size_t e) {
            if (!unpack_bulk(bytes + b * record_size, e - b, recs + b)) {
              ok.store(false, std::memory_order_relaxed);
            }
          });
      record_ok = ok.load(std::memory_order_relaxed);
    } else {
      record_ok = unpack_bulk(bytes, n, recs);
    }
    if (!record_ok) {
      return Status::error(std::string("corrupt ") + what + " record");
    }
    left -= n;
    remaining_ -= n;
    *appended += n;
  }
  if (remaining_ == 0) {
    ++section_;
    frame_read_ = false;
    if (done()) return try_read_runstats();
  }
  return Status::ok();
}

Status TraceStreamReader::try_read_runstats() {
  // Trailer dispatch: each optional trailer is self-describing by its
  // 4-byte marker, so keep consuming trailers until the peeked bytes
  // are neither a known marker nor present at all.
  std::istream& in = *in_;
  for (;;) {
    const std::istream::pos_type pos = in.tellg();
    if (!in || pos == std::istream::pos_type(-1)) {
      in.clear();  // non-seekable: leave trailers absent
      return Status::ok();
    }
    char marker_buf[4];
    in.read(marker_buf, sizeof(marker_buf));
    if (in.gcount() != static_cast<std::streamsize>(sizeof(marker_buf))) {
      // Clean EOF or a short tail: no more trailers. Rewind so
      // expect_eof's trailing-byte count is exact.
      in.clear();
      in.seekg(pos);
      return Status::ok();
    }
    const std::uint32_t marker = unpack_u32(marker_buf);
    Status parsed = Status::ok();
    if (marker == kRunStatsMarker) {
      parsed = read_runstats_trailer();
    } else if (marker == kFilterMarker) {
      parsed = read_filter_trailer();
    } else {
      // Someone else's bytes: not a trailer. Give them back.
      in.clear();
      in.seekg(pos);
      return Status::ok();
    }
    if (!parsed) return parsed;
  }
}

Status TraceStreamReader::read_runstats_trailer() {
  Cursor cur(*in_);
  std::uint32_t record_size = 0;
  // Legacy 15-field records predate the admission pipeline; their
  // admission counters stay zero (value-initialised payload).
  char payload[kRunStatsRecordSize] = {};
  if (!cur.get(&record_size) ||
      (record_size != kRunStatsRecordSize &&
       record_size != kRunStatsRecordSizeLegacy)) {
    return Status::error("runstats record size mismatch (corrupt trailer)");
  }
  if (!cur.get_bytes(payload, record_size)) {
    return Status::error("truncated runstats trailer");
  }
  RunStats& rs = header_.run_stats;
  const char* p = payload;
  rs.events_recorded = unpack_u64(p); p += 8;
  rs.events_dropped = unpack_u64(p); p += 8;
  rs.buffer_flushes = unpack_u64(p); p += 8;
  rs.threads_registered = unpack_u64(p); p += 8;
  rs.tempd_ticks = unpack_u64(p); p += 8;
  rs.tempd_missed_ticks = unpack_u64(p); p += 8;
  rs.tempd_samples = unpack_u64(p); p += 8;
  rs.tempd_read_errors = unpack_u64(p); p += 8;
  rs.sensor_read_failures = unpack_u64(p); p += 8;
  rs.heartbeats = unpack_u64(p); p += 8;
  rs.peak_rss_kb = unpack_u64(p); p += 8;
  rs.wall_seconds = unpack_f64(p); p += 8;
  rs.tempd_cpu_seconds = unpack_f64(p); p += 8;
  rs.probe_cost_ns_mean = unpack_f64(p); p += 8;
  rs.cadence_jitter_us_mean = unpack_f64(p); p += 8;
  rs.events_suppressed = unpack_u64(p); p += 8;
  rs.events_throttled = unpack_u64(p); p += 8;
  rs.events_overwritten = unpack_u64(p); p += 8;
  rs.calls_observed = unpack_u64(p); p += 8;
  rs.ring_snapshots = unpack_u64(p);
  rs.present = true;
  return Status::ok();
}

Status TraceStreamReader::read_filter_trailer() {
  Cursor cur(*in_);
  char resolved_buf[8];
  FilterDecl& fd = header_.filter;
  if (!cur.get_bytes(resolved_buf, sizeof(resolved_buf))) {
    return Status::error("truncated filter trailer");
  }
  fd.resolved = unpack_u64(resolved_buf);
  std::uint32_t count = 0;
  if (!cur.get_string(&fd.source) || !cur.get(&count)) {
    return Status::error("truncated filter trailer");
  }
  if (count > (1u << 20)) {
    return Status::error("filter trailer symbol count implausible (corrupt)");
  }
  fd.suppressed.clear();
  fd.suppressed.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!cur.get_string(&fd.suppressed[i])) {
      return Status::error("truncated filter trailer symbol");
    }
  }
  fd.present = true;
  return Status::ok();
}

Status TraceStreamReader::next_fn_events(std::vector<FnEvent>* out,
                                         std::size_t max_records,
                                         std::size_t* appended) {
  return next_section(0, kFnEventRecordSize, "fn event", out, max_records,
                      appended, codec::unpack_fn_events);
}

Status TraceStreamReader::next_temp_samples(std::vector<TempSample>* out,
                                            std::size_t max_records,
                                            std::size_t* appended) {
  return next_section(1, kTempSampleRecordSize, "temp sample", out, max_records,
                      appended,
                      [](const char* src, std::size_t n, TempSample* dst) {
                        codec::unpack_temp_samples(src, n, dst);
                        return true;
                      });
}

Status TraceStreamReader::next_clock_syncs(std::vector<ClockSync>* out,
                                           std::size_t max_records,
                                           std::size_t* appended) {
  return next_section(2, kClockSyncRecordSize, "clock sync", out, max_records,
                      appended,
                      [](const char* src, std::size_t n, ClockSync* dst) {
                        codec::unpack_clock_syncs(src, n, dst);
                        return true;
                      });
}

bool TraceStreamReader::done() const { return section_ >= 3; }

Result<SectionsAhead> TraceStreamReader::read_ahead() {
  using R = Result<SectionsAhead>;
  if (section_ != 0 || frame_read_) {
    return R::error("read-ahead pre-pass must run before the bulk sections "
                    "are consumed");
  }
  std::istream& in = *in_;
  const std::istream::pos_type pos = in.tellg();
  if (!in || pos == std::istream::pos_type(-1)) {
    in.clear();
    return R::error("read-ahead pre-pass needs a seekable stream "
                    "(pipe input: write the trace to a file first)");
  }

  Cursor cur(in);
  const auto read_frame = [&](std::uint32_t record_size, const char* what,
                              std::uint64_t* count) -> Status {
    std::uint32_t rs = 0;
    if (!cur.get(count) || *count > kMaxRecords) {
      return Status::error(std::string("truncated or oversized ") + what +
                           " section");
    }
    if (!cur.get(&rs) || rs != record_size) {
      return Status::error(std::string(what) +
                           " record size mismatch (corrupt section framing)");
    }
    return Status::ok();
  };
  // The same frame + staged-chunk decode as next_section, into memory.
  const auto read_section = [&](auto* out, std::uint32_t record_size,
                                const char* what, auto unpack) -> Status {
    std::uint64_t count = 0;
    const Status framed = read_frame(record_size, what, &count);
    if (!framed) return framed;
    const std::uint64_t fit =
        stream_bound_ == UINT64_MAX ? kReserveCap : stream_bound_ / record_size;
    out->reserve(static_cast<std::size_t>(std::min(count, fit)));
    std::vector<char> staging;
    const std::size_t per_chunk = std::max<std::size_t>(1, kStagingBytes / record_size);
    for (std::uint64_t left = count; left > 0;) {
      const std::size_t n =
          static_cast<std::size_t>(std::min<std::uint64_t>(per_chunk, left));
      staging.resize(n * record_size);
      if (!cur.get_bytes(staging.data(), staging.size())) {
        return Status::error(std::string("truncated ") + what + " section");
      }
      const std::size_t base = out->size();
      out->resize(base + n);
      unpack(staging.data(), n, out->data() + base);
      left -= n;
    }
    return Status::ok();
  };

  SectionsAhead ahead;
  std::uint64_t events = 0;
  Status read = read_frame(kFnEventRecordSize, "fn event", &events);
  if (read) {
    in.seekg(static_cast<std::istream::off_type>(events * kFnEventRecordSize),
             std::ios::cur);
    // A seek past EOF only surfaces on the next read; peek forces it.
    if (!in || in.peek() == std::char_traits<char>::eof()) {
      read = Status::error("truncated fn event section");
    }
  }
  if (read) {
    read = read_section(&ahead.temp_samples, kTempSampleRecordSize, "temp sample",
                        codec::unpack_temp_samples);
  }
  if (read) {
    read = read_section(&ahead.clock_syncs, kClockSyncRecordSize, "clock sync",
                        codec::unpack_clock_syncs);
  }

  in.clear();
  in.seekg(pos);
  if (!in) return R::error("stream rewind failed after read-ahead pre-pass");
  if (!read) return R::error(read.message());
  return ahead;
}

Status TraceStreamReader::expect_eof() {
  if (!done()) {
    return Status::error("trace not fully read (bulk sections still pending)");
  }
  std::istream& in = *in_;
  if (in.peek() == std::char_traits<char>::eof()) return Status::ok();
  const std::istream::pos_type pos = in.tellg();
  std::string count = "trailing";
  if (in && pos != std::istream::pos_type(-1)) {
    in.seekg(0, std::ios::end);
    const std::istream::pos_type end = in.tellg();
    in.clear();
    in.seekg(pos);
    if (end != std::istream::pos_type(-1) && end > pos) {
      count = std::to_string(static_cast<std::uint64_t>(end - pos)) + " trailing";
    }
  }
  return Status::error(count + " byte(s) after the last trace section "
                       "(concatenated or partially overwritten file?)");
}

Result<Trace> read_trace(std::istream& in) {
  auto opened = TraceStreamReader::open(in);
  if (!opened.is_ok()) return Result<Trace>::error(opened.message());
  TraceStreamReader reader = std::move(opened).value();

  Trace trace;
  static_cast<TraceHeader&>(trace) = reader.header();
  std::size_t appended = 0;
  while (!reader.done()) {
    Status section = reader.next_fn_events(
        &trace.fn_events, std::numeric_limits<std::size_t>::max(), &appended);
    if (section) {
      section = reader.next_temp_samples(
          &trace.temp_samples, std::numeric_limits<std::size_t>::max(), &appended);
    }
    if (section) {
      section = reader.next_clock_syncs(
          &trace.clock_syncs, std::numeric_limits<std::size_t>::max(), &appended);
    }
    if (!section) return Result<Trace>::error(section.message());
  }
  // The trailers are parsed when the last section completes, after the
  // header copy above — refresh them.
  trace.run_stats = reader.header().run_stats;
  trace.filter = reader.header().filter;
  return trace;
}

Result<Trace> read_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Result<Trace>::error("cannot open trace file: " + path);
  auto opened = TraceStreamReader::open(in);
  if (!opened.is_ok()) {
    return Result<Trace>::error(path + ": " + opened.message());
  }
  TraceStreamReader reader = std::move(opened).value();
  Trace trace;
  static_cast<TraceHeader&>(trace) = reader.header();
  std::size_t appended = 0;
  while (!reader.done()) {
    Status section = reader.next_fn_events(
        &trace.fn_events, std::numeric_limits<std::size_t>::max(), &appended);
    if (section) {
      section = reader.next_temp_samples(
          &trace.temp_samples, std::numeric_limits<std::size_t>::max(), &appended);
    }
    if (section) {
      section = reader.next_clock_syncs(
          &trace.clock_syncs, std::numeric_limits<std::size_t>::max(), &appended);
    }
    if (!section) return Result<Trace>::error(path + ": " + section.message());
  }
  trace.run_stats = reader.header().run_stats;
  trace.filter = reader.header().filter;
  const Status eof = reader.expect_eof();
  if (!eof) return Result<Trace>::error(path + ": " + eof.message());
  return trace;
}

}  // namespace tempest::trace
