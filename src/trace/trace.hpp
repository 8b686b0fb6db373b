// Trace data model.
//
// A Tempest run produces, per node: function entry/exit events stamped
// with the node's TSC, temperature samples from tempd, and metadata
// (hostname, sensor inventory, thread->core binding). Clock-sync records
// pair node-local with global timestamps so the merger can align
// unsynchronised counters (§3.3). The profiled process keeps everything
// in this in-memory form and serialises once at exit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tempest::trace {

enum class FnEventKind : std::uint8_t { kEnter = 1, kExit = 2 };

/// Function entry or exit, stamped in the owning node's clock domain.
struct FnEvent {
  std::uint64_t tsc = 0;
  std::uint64_t addr = 0;       ///< function address (symbolised later)
  std::uint32_t thread_id = 0;  ///< dense per-process thread index
  std::uint16_t node_id = 0;
  FnEventKind kind = FnEventKind::kEnter;
};

/// One tempd reading.
struct TempSample {
  std::uint64_t tsc = 0;
  double temp_c = 0.0;
  std::uint16_t node_id = 0;
  std::uint16_t sensor_id = 0;
};

/// (node clock, global clock) observation used for alignment.
struct ClockSync {
  std::uint64_t node_tsc = 0;
  std::uint64_t global_tsc = 0;
  std::uint16_t node_id = 0;
};

struct NodeInfo {
  std::uint16_t node_id = 0;
  std::string hostname;
};

struct SensorMeta {
  std::uint16_t node_id = 0;
  std::uint16_t sensor_id = 0;
  std::string name;
  double quant_step_c = 0.0;
};

struct ThreadInfo {
  std::uint32_t thread_id = 0;
  std::uint16_t node_id = 0;
  std::uint16_t core = 0;
};

/// Name for a synthetic "function" address minted by the explicit
/// region / per-block API (no ELF symbol exists for those).
struct SyntheticSymbol {
  std::uint64_t addr = 0;
  std::string name;
};

/// Synthetic addresses live far above any plausible text segment.
inline constexpr std::uint64_t kSyntheticAddrBase = 0xFFFF'F000'0000'0000ULL;

/// Runtime self-measurement written by the recording process at session
/// end (trace v2 RUNSTATS trailer). Answers "can I trust this trace?":
/// were events dropped, did tempd keep its cadence, what did the
/// instrumentation itself cost. Optional — `present` is false for
/// traces written before the section existed, and the field order here
/// is the serialised field order (20 x 8 bytes, little-endian; readers
/// also accept the original 15-field record, zero-filling the admission
/// counters appended by the adaptive-recording runtime).
struct RunStats {
  std::uint64_t events_recorded = 0;   ///< fn events captured
  std::uint64_t events_dropped = 0;    ///< fn events lost to buffer caps
  std::uint64_t buffer_flushes = 0;    ///< thread-buffer chunk allocations
  std::uint64_t threads_registered = 0;
  std::uint64_t tempd_ticks = 0;        ///< sampler wakeups taken
  std::uint64_t tempd_missed_ticks = 0; ///< deadlines skipped (overrun)
  std::uint64_t tempd_samples = 0;      ///< temperature samples pushed
  std::uint64_t tempd_read_errors = 0;  ///< per-tick whole-node failures
  std::uint64_t sensor_read_failures = 0;  ///< individual read_celsius fails
  std::uint64_t heartbeats = 0;         ///< telemetry snapshots emitted
  std::uint64_t peak_rss_kb = 0;        ///< process peak RSS at session end
  double wall_seconds = 0.0;            ///< session start..stop wall time
  double tempd_cpu_seconds = 0.0;       ///< CPU burnt by the sampler thread
  double probe_cost_ns_mean = 0.0;      ///< self-measured mean probe cost
  double cadence_jitter_us_mean = 0.0;  ///< mean |tick - deadline|

  // Admission-pipeline accounting (zero in pre-admission traces). The
  // conservation invariant lint checks: calls_observed == accounted().
  std::uint64_t events_suppressed = 0;   ///< rejected by the TEMPEST_FILTER set
  std::uint64_t events_throttled = 0;    ///< rejected by rate caps / min-duration
  std::uint64_t events_overwritten = 0;  ///< discarded by the flight-recorder ring
  std::uint64_t calls_observed = 0;      ///< every hook invocation seen
  std::uint64_t ring_snapshots = 0;      ///< flight-recorder snapshots written

  bool present = false;  ///< section existed in the trace (not serialised)

  /// Every hook call's fate: recorded + suppressed + throttled + dropped
  /// + overwritten. A sound recorder's calls_observed equals it.
  std::uint64_t accounted() const {
    return events_recorded + events_suppressed + events_throttled +
           events_dropped + events_overwritten;
  }

  /// Fold another run's stats in (multi-rank fan-in): counts add, wall
  /// time takes the max (ranks overlap), CPU adds, means combine
  /// weighted by their populations.
  void append(const RunStats& other);
};

/// The suppression filter that was active while the trace was
/// recorded (trace v2 FLTR trailer, optional). Declaring the filter in
/// the trace lets tempest-lint's --symtab coverage cross-check tell
/// "function instrumented but deliberately suppressed" apart from
/// "function instrumented but mysteriously absent" — without this a
/// filtered run would drown in instrumentation-unused false positives.
struct FilterDecl {
  bool present = false;           ///< trailer existed (not serialised)
  std::string source;             ///< path of the consumed filter file
  std::uint64_t resolved = 0;     ///< rules resolved to runtime addresses
  std::vector<std::string> suppressed;  ///< raw symbol names, file order

  /// Merge another rank's declaration (multi-rank fan-in): union of
  /// suppressed names, first non-empty source wins, resolved takes max.
  void append(const FilterDecl& other);
};

/// Run-level metadata: everything in a trace except the bulk record
/// sections. Small (O(nodes + threads + sensors)), so the streaming
/// pipeline materialises it eagerly while events stream through in
/// bounded batches.
struct TraceHeader {
  double tsc_ticks_per_second = 0.0;
  std::string executable;       ///< path used for symbol resolution
  std::uint64_t load_bias = 0;  ///< runtime - link-time address delta (PIE)

  std::vector<NodeInfo> nodes;
  std::vector<SensorMeta> sensors;
  std::vector<ThreadInfo> threads;
  std::vector<SyntheticSymbol> synthetic_symbols;

  /// Recording-side self-measurement (absent in pre-RUNSTATS traces).
  RunStats run_stats;

  /// Suppression filter active during recording (absent when none).
  FilterDecl filter;

  /// Append another run's metadata in declaration order (multi-rank
  /// fan-in). Ids are not remapped: ranks are expected to carry
  /// globally unique node/thread ids, and tempest-lint's duplicate-id
  /// checks flag violations after a merge.
  void append(const TraceHeader& other);
};

/// A complete run's worth of profiling data: header plus the bulk
/// record sections.
struct Trace : TraceHeader {
  std::vector<FnEvent> fn_events;
  std::vector<TempSample> temp_samples;
  std::vector<ClockSync> clock_syncs;

  /// Sort events and samples by timestamp, ties kept stable: an O(n)
  /// is_sorted check each, with a stable_sort for anything out of order.
  /// Also caches start/end timestamps; mutating events or samples
  /// afterwards requires calling sort_by_time again (true anyway, since
  /// mutation breaks the order).
  void sort_by_time();

  /// sort_by_time for events already in time order, as the recorder's
  /// drain merges them (ThreadRegistry::drain_into): sorts the samples
  /// only and caches the bounds from the ends of both.
  void sort_samples_by_time();

  /// Earliest timestamp across events and samples (0 when empty).
  /// O(1) after sort_by_time, O(n) scan otherwise.
  std::uint64_t start_tsc() const;
  /// Latest timestamp across events and samples (0 when empty).
  /// O(1) after sort_by_time, O(n) scan otherwise.
  std::uint64_t end_tsc() const;

  /// Seconds between start and a given tsc, using the recorded rate.
  double seconds_from_start(std::uint64_t tsc) const;

 private:
  bool bounds_cached_ = false;
  std::uint64_t cached_start_ = 0;
  std::uint64_t cached_end_ = 0;
};

}  // namespace tempest::trace
