#include "telemetry/metrics.hpp"

#include <cmath>
#include <ostream>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif
#if defined(__linux__)
#include <fcntl.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#endif

#include "common/env.hpp"

namespace tempest::telemetry {
namespace {

const char* const kCounterNames[kCounterCount] = {
    "events_recorded",
    "events_dropped",
    "buffer_flushes",
    "threads_registered",
    "session_starts",
    "session_stops",
    "tempd_ticks",
    "tempd_missed_ticks",
    "tempd_samples",
    "tempd_read_errors",
    "sensor_reads",
    "sensor_read_failures",
    "pipeline_batches",
    "pipeline_fn_events",
    "pipeline_temp_samples",
    "heartbeats",
    "export_events_exported",
    "export_spans_dropped",
    "export_bytes_written",
    "events_suppressed",
    "events_throttled",
    "events_overwritten",
    "ring_snapshots",
    "stream_frames_sent",
    "stream_bytes_sent",
    "stream_send_failures",
    "collect_frames",
    "collect_bytes",
    "collect_events",
    "collect_samples",
    "collect_heartbeats",
    "collect_heartbeat_gaps",
    "collect_restarts",
    "collect_protocol_errors",
    "collect_disconnects",
    "collect_sessions_folded",
    "collect_sessions_aborted",
    "collect_http_requests",
    "collect_idle_timeouts",
};

const char* const kGaugeNames[kGaugeCount] = {
    "peak_rss_kb",
    "tempd_cpu_us",
    "active_threads",
    "sensor_temp_0_mc",
    "sensor_temp_1_mc",
    "sensor_temp_2_mc",
    "sensor_temp_3_mc",
    "sensor_temp_4_mc",
    "sensor_temp_5_mc",
    "sensor_temp_6_mc",
    "sensor_temp_7_mc",
    "collect_sessions_active",
    "collect_queue_frames",
    "pipeline_order_held_max",
};

const char* const kHistogramNames[kHistogramCount] = {
    "probe_cost_ns",
    "cadence_jitter_us",
    "tick_wall_us",
    "sensor_read_us",
    "stage_wall_us",
    "collect_fold_us",
};

// Nanosecond scale: covers a handful of instructions up to a pathological
// quarter millisecond.
constexpr double kNsBounds[kHistogramBuckets - 1] = {
    4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 65536, 262144};

// Microsecond scale: sub-tick latencies up to a quarter second (a 4 Hz
// period is 250000 us — the overflow bucket means "blew a whole period").
constexpr double kUsBounds[kHistogramBuckets - 1] = {
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 50000, 250000};

const double* const kHistogramBoundTable[kHistogramCount] = {
    kNsBounds,  // kProbeCostNs
    kUsBounds,  // kCadenceJitterUs
    kUsBounds,  // kTickWallUs
    kUsBounds,  // kSensorReadUs
    kUsBounds,  // kStageWallUs
    kUsBounds,  // kCollectFoldUs
};

std::size_t bucket_for(Histogram h, double value) {
  const double* bounds = kHistogramBoundTable[static_cast<std::size_t>(h)];
  for (std::size_t i = 0; i < kHistogramBuckets - 1; ++i) {
    if (value <= bounds[i]) return i;
  }
  return kHistogramBuckets - 1;
}

thread_local std::uint32_t tls_shard = UINT32_MAX;

/// The members every snapshot line carries after its leading ones, and
/// the closing brace.
void write_snapshot_members(std::ostream& out, const MetricsSnapshot& snapshot) {
  for (std::size_t c = 0; c < kCounterCount; ++c) {
    out << ",\"" << kCounterNames[c] << "\":" << snapshot.counters[c];
  }
  for (std::size_t g = 0; g < kGaugeCount; ++g) {
    out << ",\"" << kGaugeNames[g] << "\":" << snapshot.gauges[g];
  }
  for (std::size_t h = 0; h < kHistogramCount; ++h) {
    const HistogramSnapshot& hs = snapshot.histograms[h];
    out << ",\"" << kHistogramNames[h] << "_count\":" << hs.count << ",\""
        << kHistogramNames[h] << "_mean\":" << hs.mean() << ",\""
        << kHistogramNames[h] << "_max\":" << hs.max;
  }
  out << "}";
}

}  // namespace

const char* counter_name(Counter c) {
  return kCounterNames[static_cast<std::size_t>(c)];
}
const char* gauge_name(Gauge g) { return kGaugeNames[static_cast<std::size_t>(g)]; }
const char* histogram_name(Histogram h) {
  return kHistogramNames[static_cast<std::size_t>(h)];
}
const double* histogram_bounds(Histogram h) {
  return kHistogramBoundTable[static_cast<std::size_t>(h)];
}

Metrics::Metrics() {
  enabled_.store(env_bool("TEMPEST_TELEMETRY", true), std::memory_order_relaxed);
  for (auto& g : gauges_) g.store(0, std::memory_order_relaxed);
  // Shard atomics zero-initialise via value construction of the arrays.
}

Metrics& Metrics::instance() {
  static Metrics* m = new Metrics();  // leaked: see header
  return *m;
}

Metrics::Shard& Metrics::shard() {
  std::uint32_t idx = tls_shard;
  if (idx == UINT32_MAX) {
    idx = next_shard_.fetch_add(1, std::memory_order_relaxed) % kShards;
    tls_shard = idx;
  }
  return shards_[idx];
}

void Metrics::record(Histogram h, double value) {
  if (!enabled()) return;
  if (!(value >= 0.0)) value = 0.0;  // NaN / negative: clamp, never UB
  Shard& s = shard();
  const std::size_t hi = static_cast<std::size_t>(h);
  const std::uint64_t v = static_cast<std::uint64_t>(std::llround(value));
  s.hist_buckets[hi][bucket_for(h, value)].fetch_add(1, std::memory_order_relaxed);
  s.hist_count[hi].fetch_add(1, std::memory_order_relaxed);
  s.hist_sum[hi].fetch_add(v, std::memory_order_relaxed);
  std::uint64_t prev = s.hist_max[hi].load(std::memory_order_relaxed);
  while (prev < v && !s.hist_max[hi].compare_exchange_weak(
                         prev, v, std::memory_order_relaxed)) {
  }
}

MetricsSnapshot Metrics::snapshot() const {
  MetricsSnapshot snap;
  for (const Shard& s : shards_) {
    for (std::size_t c = 0; c < kCounterCount; ++c) {
      snap.counters[c] += s.counters[c].load(std::memory_order_relaxed);
    }
    for (std::size_t h = 0; h < kHistogramCount; ++h) {
      HistogramSnapshot& hs = snap.histograms[h];
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        hs.buckets[b] += s.hist_buckets[h][b].load(std::memory_order_relaxed);
      }
      hs.count += s.hist_count[h].load(std::memory_order_relaxed);
      hs.sum += s.hist_sum[h].load(std::memory_order_relaxed);
      hs.max = std::max(hs.max, s.hist_max[h].load(std::memory_order_relaxed));
    }
  }
  for (std::size_t g = 0; g < kGaugeCount; ++g) {
    snap.gauges[g] = gauges_[g].load(std::memory_order_relaxed);
  }
  return snap;
}

void Metrics::reset() {
  for (Shard& s : shards_) {
    for (auto& c : s.counters) c.store(0, std::memory_order_relaxed);
    for (auto& hb : s.hist_buckets) {
      for (auto& b : hb) b.store(0, std::memory_order_relaxed);
    }
    for (auto& c : s.hist_count) c.store(0, std::memory_order_relaxed);
    for (auto& c : s.hist_sum) c.store(0, std::memory_order_relaxed);
    for (auto& c : s.hist_max) c.store(0, std::memory_order_relaxed);
  }
  for (auto& g : gauges_) g.store(0, std::memory_order_relaxed);
}

std::int64_t read_peak_rss_kb() {
#if defined(__linux__)
  // VmHWM is this process's own high-water mark. getrusage's ru_maxrss
  // is not: Linux carries it across fork+exec and posix_spawn, so a
  // tool started by a large parent would report the parent's peak.
  const int fd = ::open("/proc/self/status", O_RDONLY | O_CLOEXEC);
  if (fd >= 0) {
    char buf[8192];
    std::size_t len = 0;
    ssize_t n = 0;
    while (len + 1 < sizeof(buf) &&
           (n = ::read(fd, buf + len, sizeof(buf) - 1 - len)) > 0) {
      len += static_cast<std::size_t>(n);
    }
    ::close(fd);
    buf[len] = '\0';
    if (const char* line = std::strstr(buf, "\nVmHWM:")) {
      return std::strtoll(line + 7, nullptr, 10);  // "  1234 kB"
    }
  }
#endif
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::int64_t>(ru.ru_maxrss) / 1024;  // bytes on macOS
#else
  return static_cast<std::int64_t>(ru.ru_maxrss);  // KiB on Linux
#endif
#else
  return 0;
#endif
}

void write_snapshot_json(std::ostream& out, const MetricsSnapshot& snapshot,
                         double t_seconds, std::uint64_t seq) {
  out << "{\"t\":" << t_seconds << ",\"schema_version\":" << kHeartbeatSchemaVersion
      << ",\"seq\":" << seq;
  write_snapshot_members(out, snapshot);
}

void write_snapshot_prometheus(std::ostream& out, const MetricsSnapshot& snapshot,
                               double t_seconds) {
  out << "# TYPE tempest_uptime_seconds gauge\n"
      << "tempest_uptime_seconds " << t_seconds << "\n";
  for (std::size_t c = 0; c < kCounterCount; ++c) {
    out << "# TYPE tempest_" << kCounterNames[c] << " counter\n"
        << "tempest_" << kCounterNames[c] << " " << snapshot.counters[c] << "\n";
  }
  for (std::size_t g = 0; g < kGaugeCount; ++g) {
    out << "# TYPE tempest_" << kGaugeNames[g] << " gauge\n"
        << "tempest_" << kGaugeNames[g] << " " << snapshot.gauges[g] << "\n";
  }
  for (std::size_t h = 0; h < kHistogramCount; ++h) {
    const HistogramSnapshot& hs = snapshot.histograms[h];
    const double* bounds = kHistogramBoundTable[h];
    out << "# TYPE tempest_" << kHistogramNames[h] << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < kHistogramBuckets - 1; ++b) {
      cumulative += hs.buckets[b];
      out << "tempest_" << kHistogramNames[h] << "_bucket{le=\"" << bounds[b]
          << "\"} " << cumulative << "\n";
    }
    out << "tempest_" << kHistogramNames[h] << "_bucket{le=\"+Inf\"} "
        << hs.count << "\n";
    out << "tempest_" << kHistogramNames[h] << "_sum " << hs.sum << "\n";
    out << "tempest_" << kHistogramNames[h] << "_count " << hs.count << "\n";
  }
}

void write_snapshot_json(std::ostream& out, const MetricsSnapshot& snapshot,
                         double t_seconds) {
  out << "{\"t\":" << t_seconds;
  write_snapshot_members(out, snapshot);
}

}  // namespace tempest::telemetry
