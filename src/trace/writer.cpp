#include "trace/writer.hpp"

#include <fstream>
#include <sstream>
#include <vector>

#include "trace/codec.hpp"

namespace tempest::trace {
namespace {

/// One header field or section frame, little-endian like the records.
template <typename T>
void put(std::ostream& out, T value) {
  char bytes[sizeof(T)];
  codec::store_le(bytes, value);
  out.write(bytes, sizeof(bytes));
}

void put_string(std::ostream& out, const std::string& s) {
  put<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

/// Staging-buffer budget per bulk write; a 10^7-event section flushes in
/// ~900 sizeable writes instead of 5*10^7 per-field stream calls. Kept
/// under 1 MiB: several-MiB write() calls trip per-call dirty-page
/// throttling on common kernels and lose an order of magnitude.
constexpr std::size_t kStagingBytes = std::size_t{256} << 10;

/// Frame + stream a bulk section: `pack_bulk(src, n, dst)` converts
/// whole chunks into the staging buffer (src/trace/codec.hpp), which
/// flushes in sizeable writes.
template <typename Record, typename PackFn>
void write_section(std::ostream& out, const std::vector<Record>& records,
                   std::uint32_t record_size, PackFn pack_bulk) {
  put<std::uint64_t>(out, records.size());
  put<std::uint32_t>(out, record_size);
  if (records.empty()) return;

  const std::size_t per_chunk =
      std::max<std::size_t>(1, kStagingBytes / record_size);
  std::vector<char> staging(per_chunk * record_size);
  std::size_t i = 0;
  while (i < records.size()) {
    const std::size_t n = std::min(per_chunk, records.size() - i);
    pack_bulk(records.data() + i, n, staging.data());
    out.write(staging.data(), static_cast<std::streamsize>(n * record_size));
    i += n;
  }
}

}  // namespace

Status write_trace(std::ostream& out, const Trace& trace) {
  put(out, kTraceMagic);
  put(out, kTraceVersion);
  put(out, trace.tsc_ticks_per_second);
  put_string(out, trace.executable);
  put(out, trace.load_bias);

  put<std::uint32_t>(out, static_cast<std::uint32_t>(trace.nodes.size()));
  for (const auto& n : trace.nodes) {
    put(out, n.node_id);
    put_string(out, n.hostname);
  }

  put<std::uint32_t>(out, static_cast<std::uint32_t>(trace.sensors.size()));
  for (const auto& s : trace.sensors) {
    put(out, s.node_id);
    put(out, s.sensor_id);
    put(out, s.quant_step_c);
    put_string(out, s.name);
  }

  put<std::uint32_t>(out, static_cast<std::uint32_t>(trace.threads.size()));
  for (const auto& t : trace.threads) {
    put(out, t.thread_id);
    put(out, t.node_id);
    put(out, t.core);
  }

  put<std::uint32_t>(out, static_cast<std::uint32_t>(trace.synthetic_symbols.size()));
  for (const auto& s : trace.synthetic_symbols) {
    put(out, s.addr);
    put_string(out, s.name);
  }

  write_section(out, trace.fn_events, kFnEventRecordSize,
                codec::pack_fn_events);
  write_section(out, trace.temp_samples, kTempSampleRecordSize,
                codec::pack_temp_samples);
  write_section(out, trace.clock_syncs, kClockSyncRecordSize,
                codec::pack_clock_syncs);

  // RUNSTATS trailer — only when the recorder populated it, so traces
  // assembled by tools (tests, converters) stay byte-identical to the
  // pre-RUNSTATS format.
  if (trace.run_stats.present) {
    const RunStats& rs = trace.run_stats;
    char buf[4 + 4 + kRunStatsRecordSize];
    char* p = buf;
    p = codec::store_le(p, kRunStatsMarker);
    p = codec::store_le(p, kRunStatsRecordSize);
    p = codec::store_le(p, rs.events_recorded);
    p = codec::store_le(p, rs.events_dropped);
    p = codec::store_le(p, rs.buffer_flushes);
    p = codec::store_le(p, rs.threads_registered);
    p = codec::store_le(p, rs.tempd_ticks);
    p = codec::store_le(p, rs.tempd_missed_ticks);
    p = codec::store_le(p, rs.tempd_samples);
    p = codec::store_le(p, rs.tempd_read_errors);
    p = codec::store_le(p, rs.sensor_read_failures);
    p = codec::store_le(p, rs.heartbeats);
    p = codec::store_le(p, rs.peak_rss_kb);
    p = codec::store_le(p, rs.wall_seconds);
    p = codec::store_le(p, rs.tempd_cpu_seconds);
    p = codec::store_le(p, rs.probe_cost_ns_mean);
    p = codec::store_le(p, rs.cadence_jitter_us_mean);
    p = codec::store_le(p, rs.events_suppressed);
    p = codec::store_le(p, rs.events_throttled);
    p = codec::store_le(p, rs.events_overwritten);
    p = codec::store_le(p, rs.calls_observed);
    p = codec::store_le(p, rs.ring_snapshots);
    out.write(buf, sizeof(buf));
  }

  // FLTR trailer — the suppression filter active during recording.
  if (trace.filter.present) {
    char buf[4 + 8];
    char* p = buf;
    p = codec::store_le(p, kFilterMarker);
    p = codec::store_le(p, trace.filter.resolved);
    out.write(buf, sizeof(buf));
    put_string(out, trace.filter.source);
    put<std::uint32_t>(out,
                       static_cast<std::uint32_t>(trace.filter.suppressed.size()));
    for (const std::string& name : trace.filter.suppressed) {
      put_string(out, name);
    }
  }

  if (!out) return Status::error("trace write failed (stream error)");
  return Status::ok();
}

std::string encode_trace(const Trace& trace) {
  std::ostringstream out;
  (void)write_trace(out, trace);  // a string stream does not fail
  return std::move(out).str();
}

Status write_trace_file(const std::string& path, const Trace& trace) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::error("cannot open trace file for writing: " + path);
  return write_trace(out, trace);
}

}  // namespace tempest::trace
