// Runtime self-telemetry: a lock-free metrics registry.
//
// The paper's credibility rests on Tempest being middle-weight — tempd
// holds a 4 Hz cadence at < 1% CPU and the entry/exit probes barely
// perturb the measured code. This registry lets the runtime *prove*
// that about itself while it runs: monotonic counters, gauges, and
// fixed-bucket histograms with preregistered IDs, sharded per thread so
// the instrumentation hot path never locks, never allocates, and never
// shares a cache line with another recorder.
//
// Design:
//   * Every metric ID is a compile-time enum; there is no dynamic
//     registration, so recording is an array index plus one relaxed
//     atomic RMW into the calling thread's shard.
//   * Shards are a fixed pool inside a leaked singleton. A thread picks
//     its shard once (atomic round-robin, no lock); more threads than
//     shards simply share — the atomics keep the totals exact.
//   * snapshot() folds the shards with relaxed loads. Concurrent
//     recording makes a snapshot a consistent-enough view (each cell
//     individually exact, cells mutually racy) — the same contract as
//     /proc counters.
//   * Histograms are fixed-bucket: value <= bounds[i] lands in bucket
//     i, everything above the last bound in the overflow bucket. Sum /
//     count / max ride along for cheap means.
//
// The whole layer can be disarmed with TEMPEST_TELEMETRY=0: recording
// degenerates to one predictable branch.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace tempest::telemetry {

// -- preregistered metric IDs ------------------------------------------

enum class Counter : std::uint16_t {
  kEventsRecorded = 0,   ///< fn events buffered (chunk-granular live, exact at drain)
  kEventsDropped,        ///< fn events rejected (buffer cap) or retired undrained
  kBufferFlushes,        ///< event-buffer chunk allocations
  kThreadsRegistered,    ///< ThreadRegistry registrations this session
  kSessionStarts,
  kSessionStops,
  kTempdTicks,
  kTempdMissedTicks,     ///< deadlines skipped to recover the absolute cadence
  kTempdSamples,
  kTempdReadErrors,
  kSensorReads,
  kSensorReadFailures,
  kPipelineBatches,
  kPipelineFnEvents,
  kPipelineTempSamples,
  kHeartbeats,           ///< JSONL snapshots appended
  kExportEvents,         ///< trace-event records written by the exporters
  kExportSpansDropped,   ///< unbalanced entry/exit events discarded on export
  kExportBytes,          ///< bytes of export output written
  kEventsSuppressed,     ///< hook calls rejected by the TEMPEST_FILTER set
  kEventsThrottled,      ///< hook calls rejected by rate caps / min-duration
  kEventsOverwritten,    ///< events discarded by the flight-recorder ring
  kRingSnapshots,        ///< flight-recorder snapshot traces written
  kStreamFramesSent,     ///< collect-client frames shipped to the daemon
  kStreamBytesSent,      ///< collect-client bytes shipped (headers + payload)
  kStreamSendFailures,   ///< collect-client sends that failed (client goes dead)
  kCollectFrames,        ///< collector: ingest frames accepted
  kCollectBytes,         ///< collector: ingest payload bytes accepted
  kCollectEvents,        ///< collector: fn events folded
  kCollectSamples,       ///< collector: temperature samples folded
  kCollectHeartbeats,    ///< collector: heartbeat lines ingested
  kCollectHeartbeatGaps, ///< collector: heartbeat seq gaps (lines lost in flight)
  kCollectRestarts,      ///< collector: heartbeat seq regressions (sender restarted)
  kCollectProtocolErrors,///< collector: malformed/oversized frames (session aborted)
  kCollectDisconnects,   ///< collector: ingest connections lost before BYE
  kCollectSessionsFolded,///< collector: sessions folded into the fleet profile
  kCollectSessionsAborted,///< collector: sessions discarded (error or disconnect)
  kCollectHttpRequests,  ///< collector: query-plane requests served
  kCollectIdleTimeouts,  ///< collector: connections reaped by the idle sweep
  kCount
};

enum class Gauge : std::uint16_t {
  kPeakRssKb = 0,        ///< process high-water mark (read_peak_rss_kb)
  kTempdCpuUs,           ///< tempd thread CPU time so far, microseconds
  kActiveThreads,        ///< live registered recorder threads
  kSensorTemp0MilliC,    ///< last reading of the first 8 sensors, milli-°C
  kSensorTemp1MilliC,
  kSensorTemp2MilliC,
  kSensorTemp3MilliC,
  kSensorTemp4MilliC,
  kSensorTemp5MilliC,
  kSensorTemp6MilliC,
  kSensorTemp7MilliC,
  kCollectSessionsActive,  ///< collector: live ingest sessions right now
  kCollectQueueFrames,     ///< collector: frames queued across fold shards
  kPipelineOrderHeldMax,   ///< most records OrderCheckStage held back at once
  kCount
};

enum class Histogram : std::uint16_t {
  kProbeCostNs = 0,      ///< self-measured record_enter/exit probe cost
  kCadenceJitterUs,      ///< tempd tick lateness vs its absolute deadline
  kTickWallUs,           ///< one full tempd sensor sweep
  kSensorReadUs,         ///< one backend read_celsius call
  kStageWallUs,          ///< one pipeline stage/sink call on one batch
  kCollectFoldUs,        ///< collector: folding one ingest frame into a session
  kCount
};

inline constexpr std::size_t kCounterCount = static_cast<std::size_t>(Counter::kCount);
inline constexpr std::size_t kGaugeCount = static_cast<std::size_t>(Gauge::kCount);
inline constexpr std::size_t kHistogramCount =
    static_cast<std::size_t>(Histogram::kCount);
/// Buckets per histogram: 15 preregistered bounds + 1 overflow.
inline constexpr std::size_t kHistogramBuckets = 16;

/// Stable snake_case names (heartbeat JSON keys, tempest-top labels).
const char* counter_name(Counter c);
const char* gauge_name(Gauge g);
const char* histogram_name(Histogram h);
/// The 15 upper bounds of `h` (bucket i counts values <= bounds[i]).
const double* histogram_bounds(Histogram h);

// -- snapshot ----------------------------------------------------------

struct HistogramSnapshot {
  std::uint64_t buckets[kHistogramBuckets] = {};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;  ///< integer-rounded recorded values
  std::uint64_t max = 0;
  double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }
};

struct MetricsSnapshot {
  std::uint64_t counters[kCounterCount] = {};
  std::int64_t gauges[kGaugeCount] = {};
  HistogramSnapshot histograms[kHistogramCount] = {};

  std::uint64_t counter(Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  std::int64_t gauge(Gauge g) const { return gauges[static_cast<std::size_t>(g)]; }
  const HistogramSnapshot& histogram(Histogram h) const {
    return histograms[static_cast<std::size_t>(h)];
  }
};

/// One flat JSON object (no trailing newline): {"t":..., every counter,
/// every gauge, and <hist>_count/_mean/_max per histogram}. The
/// heartbeat file is lines of exactly this; tempest-top parses it back.
void write_snapshot_json(std::ostream& out, const MetricsSnapshot& snapshot,
                         double t_seconds);

/// Version of the heartbeat line schema. Bumped when a key changes
/// meaning; adding keys is not a version bump (readers scan by key and
/// tolerate absence).
inline constexpr std::uint64_t kHeartbeatSchemaVersion = 1;

/// As above, prefixed with `"schema_version"` and a monotonic `"seq"`
/// so stream consumers can tell dropped lines (seq gap) from sender
/// restarts (seq regression). Readers tolerate both keys being absent.
void write_snapshot_json(std::ostream& out, const MetricsSnapshot& snapshot,
                         double t_seconds, std::uint64_t seq);

/// Prometheus text exposition (format 0.0.4) of the same snapshot:
/// every counter/gauge under a `tempest_` prefix with TYPE comments,
/// each histogram as a native Prometheus histogram (cumulative
/// `_bucket{le=...}` series from the preregistered bounds plus `_sum`
/// and `_count`), and `tempest_uptime_seconds`. Serve it with
/// `Content-Type: text/plain; version=0.0.4; charset=utf-8`.
void write_snapshot_prometheus(std::ostream& out, const MetricsSnapshot& snapshot,
                               double t_seconds);

// -- registry ----------------------------------------------------------

class Metrics {
 public:
  /// Process-wide registry (leaked, like Session: hooks may record
  /// during static destruction).
  static Metrics& instance();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  void add(Counter c, std::uint64_t delta = 1) {
    if (!enabled()) return;
    shard().counters[static_cast<std::size_t>(c)].fetch_add(
        delta, std::memory_order_relaxed);
  }

  void set(Gauge g, std::int64_t value) {
    if (!enabled()) return;
    gauges_[static_cast<std::size_t>(g)].store(value, std::memory_order_relaxed);
  }

  /// High-water-mark gauges: raise to `value` unless already above it.
  void raise(Gauge g, std::int64_t value) {
    if (!enabled()) return;
    std::atomic<std::int64_t>& slot = gauges_[static_cast<std::size_t>(g)];
    std::int64_t seen = slot.load(std::memory_order_relaxed);
    while (seen < value &&
           !slot.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
    }
  }

  void record(Histogram h, double value);

  /// Fold all shards. Safe concurrently with recording.
  MetricsSnapshot snapshot() const;

  /// Zero everything (new session epoch). Call from the controlling
  /// thread; concurrent recorders may leak a few pre-reset increments
  /// into the new epoch, never corrupt state.
  void reset();

  /// Shards in the fixed pool (tests size their hammer against it).
  static constexpr std::size_t kShards = 64;

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> counters[kCounterCount];
    std::atomic<std::uint64_t> hist_buckets[kHistogramCount][kHistogramBuckets];
    std::atomic<std::uint64_t> hist_count[kHistogramCount];
    std::atomic<std::uint64_t> hist_sum[kHistogramCount];
    std::atomic<std::uint64_t> hist_max[kHistogramCount];
  };

  Metrics();
  Shard& shard();

  Shard shards_[kShards];
  std::atomic<std::int64_t> gauges_[kGaugeCount];
  std::atomic<std::uint32_t> next_shard_{0};
  std::atomic<bool> enabled_{true};
};

// -- hot-path free functions (the API the rest of the tree uses) -------

inline Metrics& metrics() { return Metrics::instance(); }

inline void count(Counter c, std::uint64_t delta = 1) { metrics().add(c, delta); }
inline void gauge_set(Gauge g, std::int64_t value) { metrics().set(g, value); }
inline void gauge_raise(Gauge g, std::int64_t value) { metrics().raise(g, value); }
inline void observe(Histogram h, double value) { metrics().record(h, value); }

/// This process's peak RSS in KiB: VmHWM from /proc/self/status on
/// Linux, getrusage elsewhere (0 where neither works). ru_maxrss is not
/// used on Linux because it carries the parent's peak across exec.
/// Cold-path: callers feed it into Gauge::kPeakRssKb at checkpoints.
std::int64_t read_peak_rss_kb();

}  // namespace tempest::telemetry
