// Tempest session configuration.
//
// Everything is settable programmatically and overridable from the
// environment so a transparently-instrumented binary (compile with
// -finstrument-functions, link libtempest, run) needs no code changes:
//
//   TEMPEST_HZ      sampling rate (default 4, the paper's rate)
//   TEMPEST_OUT     trace file path ("" keeps the trace in memory)
//   TEMPEST_UNIT    C or F for reports (paper prints Fahrenheit)
//   TEMPEST_BIND    bind the main thread to a CPU (default 1, see §3.3)
//   TEMPEST_CPU     which CPU to bind to (default 0)
//   TEMPEST_REPORT  print the standard-output profile at exit (default 1)
//   TEMPEST_HEARTBEAT      telemetry snapshot period in seconds written
//                          to <trace>.telemetry.jsonl (0 = off, default;
//                          else at least 1 ms)
//   TEMPEST_COLLECT        stream the session to a tempest-collectd
//                          daemon: "uds:/path" or "tcp:host:port".
//                          Heartbeats stream live; the sealed event
//                          sections ship at stop(). Degrades to
//                          file-only recording when unreachable.
//   TEMPEST_MAX_EVENTS     per-thread event-buffer cap (unset = unbounded);
//                          overflow drops newest events, loudly counted
//   TEMPEST_WATCHDOG       fail the session stop() when recording
//                          overhead exceeded the budget (default 0: log)
//   TEMPEST_WATCHDOG_BUDGET overhead budget as a share of wall time
//                          (default 0.01 — the paper's < 1%)
//
// Admission pipeline (adaptive recording; see DESIGN.md §13):
//   TEMPEST_FILTER         path to a TEMPEST_FILTER v1 suppression file
//                          (tempest-audit --filter-out emits these);
//                          listed functions are rejected before any
//                          buffer write
//   TEMPEST_MIN_DURATION_NS elide leaf call pairs shorter than this
//   TEMPEST_RATE_CAP       admitted calls per function/thread/100 ms
//                          window; hotter functions are auto-promoted
//                          to coarser 1-in-2^k sampling
//   TEMPEST_ADAPTIVE       let tempd raise/lower a global sampling
//                          boost to hold the watchdog budget (default 0)
//   TEMPEST_RING_EVENTS    flight-recorder ring: retain only the newest
//                          N events per thread (rounded up to chunks)
//   TEMPEST_RING_SECONDS   flight-recorder window in seconds (implies a
//                          ring; the trace is trimmed to the window at
//                          drain/snapshot)
//   TEMPEST_SNAPSHOT_SIGNAL signal name/number ("USR2", "12") that
//                          triggers a flight-recorder snapshot
//
// Malformed numeric values (TEMPEST_MAX_EVENTS=banana), values that
// would silently disable recording (TEMPEST_MAX_EVENTS=0) and periods
// outside SessionConfig::check's bounds (TEMPEST_HZ=2e9) are rejected
// with a rate-limited warning and fall back to the default.
#pragma once

#include <cstddef>
#include <string>

#include "common/status.hpp"
#include "common/units.hpp"

namespace tempest::core {

/// Shortest period a recorder loop takes (the tempd tick, the
/// heartbeat). Shorter ones round toward zero steady-clock ticks, and a
/// loop's catch-up over missed deadlines would then never end.
inline constexpr double kMinPeriodSeconds = 1e-3;

struct SessionConfig {
  double sample_hz = 4.0;
  std::string output_path;
  TempUnit unit = TempUnit::kFahrenheit;
  bool bind_affinity = true;
  int bind_cpu = 0;
  bool auto_report = true;
  /// Minimum temperature samples inside a function's intervals for its
  /// thermal statistics to be reported as significant.
  std::size_t min_samples_significant = 2;

  /// Telemetry heartbeat period in seconds; 0 disables the emitter.
  /// Snapshots append to `<output_path>.telemetry.jsonl`.
  double heartbeat_period_s = 0.0;
  /// Collector endpoint ("uds:/path" or "tcp:host:port"; "" = off).
  /// When set, the session connects at start(), streams heartbeat
  /// snapshots live, and ships the sealed trace sections at stop().
  /// An unreachable daemon degrades the run to file-only recording.
  std::string collect_spec;
  /// Per-thread event cap (0 = unbounded). Overflow switches the thread
  /// to a scratch chunk: newest events drop, every drop is counted.
  std::size_t max_events_per_thread = 0;
  /// When true, stop() returns an error if the overhead watchdog trips
  /// (tempd CPU or probe cost above watchdog_budget of wall time). The
  /// trace is still written first — the failure is a verdict, not data
  /// loss.
  bool watchdog = false;
  /// Overhead budget as a share of wall time (the paper's < 1%).
  double watchdog_budget = 0.01;

  // -- admission pipeline (DESIGN.md §13) -------------------------------

  /// TEMPEST_FILTER suppression file consumed at start ("" = none).
  std::string filter_path;
  /// Elide leaf enter/exit pairs shorter than this (0 = off).
  long min_duration_ns = 0;
  /// Admitted calls per function per thread per 100 ms window (0 = off).
  long rate_cap = 0;
  /// Let tempd's controller adjust a global sampling boost against the
  /// watchdog budget.
  bool adaptive = false;
  /// Flight-recorder ring: newest events retained per thread (0 = off).
  std::size_t ring_events = 0;
  /// Flight-recorder window in seconds (0 = off). Implies a ring sized
  /// for the window if ring_events is unset.
  double ring_seconds = 0.0;
  /// Signal that triggers a flight-recorder snapshot (-1 = none).
  int snapshot_signal = -1;

  /// Defaults overlaid with any TEMPEST_* environment variables.
  static SessionConfig from_env();

  /// OK when every period the recorder loops on is in range: the tempd
  /// tick 1/sample_hz and a non-zero heartbeat_period_s within
  /// [kMinPeriodSeconds, cli::kMaxSeconds], ring_seconds 0 or within
  /// cli::check_seconds' range, and watchdog_budget finite and above 0.
  /// Session::start refuses a config that is not; the error names the
  /// field.
  Status check() const;
};

}  // namespace tempest::core
