// Static trace validation: the paper's structural invariants, machine-
// checked.
//
// A Tempest trace is only as trustworthy as the pipeline that produced
// it, and every piece of that pipeline is concurrent: lock-free
// per-thread event buffers, the tempd sampler thread, the
// message-passing runtime. tempest-lint validates that an emitted trace
// still satisfies what the paper's design guarantees:
//
//   * per-thread timestamps are monotonic (each thread stamps events
//     from one clock domain, §3.3);
//   * entry/exit streams balance under the parser's per-(thread,addr)
//     depth model (Table 1 interleaving/recursion semantics);
//   * inclusive time is conserved — no function's inclusive ticks on a
//     thread exceed that thread's whole span;
//   * every node/thread/sensor/synthetic-symbol reference resolves
//     against the trace's own metadata;
//   * tempd's sample cadence is plausible (~the configured Hz, 4 by
//     default in the paper).
//
// Violations that can occur in healthy traces (frames already open when
// the session started, `main` still open when it stopped, scheduling
// jitter in the cadence) are warnings; anything a correct pipeline can
// never emit is an error.
//
// Both entry points run one pass in the order every trace input has:
// the complete header, then the events in file order, then the samples
// and clock syncs the input already holds. A file's events stream in
// bounded batches, so a trace larger than RAM lints in memory bounded
// by one batch, the open activations and the sample gaps.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "trace/trace.hpp"

namespace tempest::audit {
struct Inventory;
}

namespace tempest::analysis {

enum class Severity { kWarning, kError };

/// One invariant violation.
struct Finding {
  std::string check;    ///< stable identifier, e.g. "monotonic-timestamps"
  Severity severity = Severity::kError;
  std::string message;  ///< human-readable details
};

struct LintOptions {
  /// Expected tempd sampling rate; 0 skips the absolute cadence check
  /// (the regularity check still runs).
  double expected_hz = 0.0;
  /// Median inter-sample gap may deviate from 1/expected_hz by this
  /// factor in either direction before the cadence warning fires.
  double cadence_tolerance = 2.0;
  /// Cadence checks need at least this many gaps to be meaningful.
  std::size_t min_cadence_gaps = 8;
  /// Cap on findings recorded per check (the counts are always exact).
  std::size_t max_findings_per_check = 8;
};

/// Findings in report order: tsc-rate and empty-trace, metadata,
/// references (events, samples, syncs), monotonic timestamps (events,
/// global sort, samples, syncs), nesting, cadence, coverage, RUNSTATS
/// and trailing bytes. The per-check cap counts each check across these
/// groups in that order; past the cap one "(further <check> findings
/// suppressed)" line stands for the rest.
struct LintReport {
  std::vector<Finding> findings;
  std::size_t error_count = 0;
  std::size_t warning_count = 0;

  // Inventory of what was checked (for the report header / JSON).
  std::size_t fn_events = 0;
  std::size_t temp_samples = 0;
  std::size_t threads = 0;
  std::size_t nodes = 0;
  std::size_t sensors = 0;

  bool clean() const { return error_count == 0; }
};

/// Run every lint check over an in-memory trace.
///
/// A RUNSTATS trailer makes lint cross-check the recorder's own counters
/// against what the trace actually contains: recorded-event count vs fn
/// events read, tempd sample count vs samples read, samples vs ticks x
/// sensors — a mismatch means the trace and its runtime accounting
/// disagree, i.e. one of them lies. With admission counters present it
/// also checks the conservation invariant
///   calls_observed == recorded + suppressed + throttled
///                     + dropped + overwritten.
/// A FLTR trailer makes suppression legitimate: suppressed counts stop
/// looking like data loss, and instrumented functions named by the
/// filter are exempt from the "instrumentation-unused" warning (their
/// silence is the filter working, not missing coverage).
///
/// A non-null `coverage`, the static audit of the traced executable,
/// enables the trace<->binary cross-check:
///   * "instrumentation-coverage" errors for events at addresses the
///     binary's instrumented set does not cover (the trace claims
///     probes the binary cannot have fired), and
///   * "instrumentation-unused" warnings for instrumented functions
///     with zero events (never called — or their events were dropped).
/// Synthetic region addresses are exempt; runtime addresses unbias
/// through the trace header's load_bias.
LintReport lint_trace(const trace::Trace& trace, const LintOptions& options = {},
                      const audit::Inventory* coverage = nullptr);

/// Read a trace file and lint it as lint_trace does; unreadable/corrupt
/// files are an error Result naming the path (distinct from a readable
/// trace with violations). Bytes after the trace — concatenation or a
/// partial overwrite — are a "file-trailing-bytes" error finding.
Result<LintReport> lint_trace_file(const std::string& path,
                                   const LintOptions& options = {},
                                   const audit::Inventory* coverage = nullptr);

/// Machine-readable report (stable field names; one JSON object).
std::string to_json(const LintReport& report);

/// Human-readable report, one finding per line plus a summary.
void write_human(std::ostream& out, const LintReport& report);

}  // namespace tempest::analysis
