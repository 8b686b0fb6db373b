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
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "trace/trace.hpp"

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

/// One function from a static audit of the traced binary, keyed by its
/// link-time address range. Declared here (not in src/audit) so the
/// lint engine stays free of the audit library; tempest-lint's
/// --symtab path builds these from an audit::Inventory.
struct CoverageFunction {
  std::uint64_t addr = 0;  ///< link-time entry address
  std::uint64_t size = 0;  ///< body extent
  std::string name;        ///< raw (possibly mangled)
  bool instrumented = false;
};

/// The traced binary's instrumented set, for the trace<->binary
/// cross-check rules.
struct CoverageInventory {
  std::vector<CoverageFunction> functions;
};

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

/// Incremental lint engine: the streaming core behind lint_trace and
/// lint_trace_file. It takes the complete header, trailers included,
/// as the trace reader has it before the first record. Metadata checks
/// run at construction; records arrive in trace/file order via the
/// add_* calls (any interleaving of the three kinds is fine — only each
/// kind's own order matters); finish() runs the end-of-stream checks
/// (unclosed activations, time conservation, cadence) and assembles
/// the report. Feeding N batches produces the same report as one batch
/// of the concatenation, with findings in the batch path's canonical
/// check order, so a file lints with memory bounded by open activations
/// and sample gaps instead of the whole trace.
///
/// A RUNSTATS trailer makes finish() cross-check the recorder's own
/// counters against what the trace actually contains: recorded-event
/// count vs fn events read, tempd sample count vs samples read, samples
/// vs ticks x sensors — a mismatch means the trace and its runtime
/// accounting disagree, i.e. one of them lies. With admission counters
/// present it also checks the conservation invariant
///   calls_observed == recorded + suppressed + throttled
///                     + dropped + overwritten.
/// A FLTR trailer makes suppression legitimate: suppressed counts stop
/// looking like data loss, and instrumented functions named by the
/// filter are exempt from the "instrumentation-unused" warning (their
/// silence is the filter working, not missing coverage).
class LintEngine {
 public:
  explicit LintEngine(const trace::TraceHeader& header,
                      const LintOptions& options = {});
  ~LintEngine();
  LintEngine(LintEngine&&) noexcept;
  LintEngine& operator=(LintEngine&&) noexcept;

  void add_fn_events(const trace::FnEvent* events, std::size_t n);
  void add_temp_samples(const trace::TempSample* samples, std::size_t n);
  void add_clock_syncs(const trace::ClockSync* syncs, std::size_t n);

  /// Record that `bytes` trailing bytes followed the last trace section
  /// (concatenated or partially overwritten file) — an error finding.
  void note_trailing_bytes(std::uint64_t bytes);

  /// Enable the trace<->binary cross-check against a static audit of
  /// the traced executable. Must be called before the first
  /// add_fn_events (the engine only tracks per-address event counts
  /// once an inventory is present). finish() then reports
  ///   * "instrumentation-coverage" errors for events at addresses the
  ///     binary's instrumented set does not cover (the trace claims
  ///     probes the binary cannot have fired), and
  ///   * "instrumentation-unused" warnings for instrumented functions
  ///     with zero events (never called — or their events were
  ///     dropped).
  /// Synthetic region addresses are exempt; runtime addresses unbias
  /// through the trace header's load_bias.
  void set_coverage_inventory(CoverageInventory inventory);

  /// Run end-of-stream checks and return the report. The engine is
  /// spent afterwards.
  LintReport finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Run every lint check over an in-memory trace. Batch wrapper over
/// LintEngine. A non-null `coverage` enables the trace<->binary
/// cross-check (see set_coverage_inventory).
LintReport lint_trace(const trace::Trace& trace, const LintOptions& options = {},
                      const CoverageInventory* coverage = nullptr);

/// Read a trace file and lint it; unreadable/corrupt files are an error
/// Result naming the path (distinct from a readable trace with
/// violations; trailing bytes are a finding). Streams the file's events
/// through LintEngine in bounded batches — traces larger than RAM lint
/// fine. A non-null `coverage` enables the trace<->binary
/// cross-check.
Result<LintReport> lint_trace_file(const std::string& path,
                                   const LintOptions& options = {},
                                   const CoverageInventory* coverage = nullptr);

/// Machine-readable report (stable field names; one JSON object).
std::string to_json(const LintReport& report);

/// Human-readable report, one finding per line plus a summary.
void write_human(std::ostream& out, const LintReport& report);

}  // namespace tempest::analysis
