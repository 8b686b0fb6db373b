#include "report/json.hpp"

#include "common/fastwrite.hpp"
#include "common/json.hpp"

namespace tempest::report {
namespace {

/// %.6f — the precision the stream-based writer historically set with
/// std::fixed << std::setprecision(6).
void append_num(std::string& out, double v) {
  fastwrite::append_fixed(out, v, 6);
}

}  // namespace

void write_profile_json(std::ostream& out, const parser::RunProfile& profile,
                        const trace::RunStats* run_stats) {
  // Written through in ~64 KiB pieces: a profile of thousands of
  // functions runs to megabytes, which a single string would hold twice
  // over while it grows.
  constexpr std::size_t kFlushBytes = std::size_t{64} << 10;
  std::string buf;
  buf.reserve(kFlushBytes + (std::size_t{4} << 10));
  buf += "{\"unit\":\"";
  buf += unit_suffix(profile.unit);
  buf += "\",\"duration_s\":";
  append_num(buf, profile.duration_s);
  buf += ",\"unmatched_exits\":";
  fastwrite::append_u64(buf, profile.diagnostics.unmatched_exits);
  buf += ",\"force_closed\":";
  fastwrite::append_u64(buf, profile.diagnostics.force_closed);
  buf += ",\"nodes\":[";
  for (std::size_t n = 0; n < profile.nodes.size(); ++n) {
    const auto& node = profile.nodes[n];
    if (n > 0) buf += ",";
    buf += "{\"node_id\":";
    fastwrite::append_u64(buf, node.node_id);
    buf += ",\"hostname\":";
    json::append_json_string(&buf, node.hostname);
    buf += ",\"duration_s\":";
    append_num(buf, node.duration_s);
    buf += ",\"functions\":[";
    for (std::size_t f = 0; f < node.functions.size(); ++f) {
      const auto& fn = node.functions[f];
      if (f > 0) buf += ",";
      buf += "{\"name\":";
      json::append_json_string(&buf, fn.name);
      buf += ",\"total_time_s\":";
      append_num(buf, fn.total_time_s);
      buf += ",\"calls\":";
      fastwrite::append_u64(buf, fn.calls);
      buf += ",\"activations\":";
      fastwrite::append_u64(buf, fn.time.count);
      buf += ",\"time_mean_s\":";
      append_num(buf, fn.time.mean_s);
      buf += ",\"time_sdv_s\":";
      append_num(buf, fn.time.sdv_s);
      buf += ",\"time_var_s2\":";
      append_num(buf, fn.time.var_s2);
      buf += ",\"significant\":";
      buf += fn.significant ? "true" : "false";
      buf += ",\"sensors\":[";
      for (std::size_t s = 0; s < fn.sensors.size(); ++s) {
        const auto& sp = fn.sensors[s];
        if (s > 0) buf += ",";
        buf += "{\"name\":";
        json::append_json_string(&buf, sp.name);
        buf += ",\"samples\":";
        fastwrite::append_u64(buf, sp.sample_count);
        buf += ",\"min\":";
        append_num(buf, sp.stats.min);
        buf += ",\"avg\":";
        append_num(buf, sp.stats.avg);
        buf += ",\"max\":";
        append_num(buf, sp.stats.max);
        buf += ",\"sdv\":";
        append_num(buf, sp.stats.sdv);
        buf += ",\"var\":";
        append_num(buf, sp.stats.var);
        buf += ",\"med\":";
        append_num(buf, sp.stats.med);
        buf += ",\"mod\":";
        append_num(buf, sp.stats.mod);
        buf += "}";
      }
      buf += "]}";
      if (buf.size() >= kFlushBytes) {
        out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
        buf.clear();
      }
    }
    buf += "]}";
  }
  buf += "]";
  if (run_stats != nullptr && run_stats->present) {
    const trace::RunStats& rs = *run_stats;
    buf += ",\"run_stats\":{\"events_recorded\":";
    fastwrite::append_u64(buf, rs.events_recorded);
    buf += ",\"events_dropped\":";
    fastwrite::append_u64(buf, rs.events_dropped);
    buf += ",\"events_suppressed\":";
    fastwrite::append_u64(buf, rs.events_suppressed);
    buf += ",\"events_throttled\":";
    fastwrite::append_u64(buf, rs.events_throttled);
    buf += ",\"events_overwritten\":";
    fastwrite::append_u64(buf, rs.events_overwritten);
    buf += ",\"calls_observed\":";
    fastwrite::append_u64(buf, rs.calls_observed);
    buf += ",\"ring_snapshots\":";
    fastwrite::append_u64(buf, rs.ring_snapshots);
    buf += ",\"buffer_flushes\":";
    fastwrite::append_u64(buf, rs.buffer_flushes);
    buf += ",\"threads_registered\":";
    fastwrite::append_u64(buf, rs.threads_registered);
    buf += ",\"tempd_ticks\":";
    fastwrite::append_u64(buf, rs.tempd_ticks);
    buf += ",\"tempd_missed_ticks\":";
    fastwrite::append_u64(buf, rs.tempd_missed_ticks);
    buf += ",\"tempd_samples\":";
    fastwrite::append_u64(buf, rs.tempd_samples);
    buf += ",\"tempd_read_errors\":";
    fastwrite::append_u64(buf, rs.tempd_read_errors);
    buf += ",\"sensor_read_failures\":";
    fastwrite::append_u64(buf, rs.sensor_read_failures);
    buf += ",\"heartbeats\":";
    fastwrite::append_u64(buf, rs.heartbeats);
    buf += ",\"peak_rss_kb\":";
    fastwrite::append_u64(buf, rs.peak_rss_kb);
    buf += ",\"wall_seconds\":";
    append_num(buf, rs.wall_seconds);
    buf += ",\"tempd_cpu_seconds\":";
    append_num(buf, rs.tempd_cpu_seconds);
    buf += ",\"probe_cost_ns_mean\":";
    append_num(buf, rs.probe_cost_ns_mean);
    buf += ",\"cadence_jitter_us_mean\":";
    append_num(buf, rs.cadence_jitter_us_mean);
    buf += "}";
  }
  buf += "}";
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

}  // namespace tempest::report
