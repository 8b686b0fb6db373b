// One-call export driver shared by the CLIs.
//
// tempest_parse --export and tempest-export need the same plumbing:
// open the trace(s) through the one analysis path (TraceInput: one file
// or a multi-rank fan-in, clock alignment, cross-node ordering), hand
// its sync records to the ClockCorrelator, build the symbol resolver,
// and drive the chosen emitter through the pipeline. run_export owns
// that plumbing so the two tools stay thin and byte-identical.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "export/export.hpp"

namespace tempest::exporter {

enum class Format { kPerfetto, kSpeedscope };

/// Parse a --format/--export value; false on unknown names.
bool parse_format(const std::string& name, Format* format);

struct ExportRunOptions {
  Format format = Format::kPerfetto;
  /// Cross-node clock alignment, for one file or a fan-in. Off also
  /// suppresses the correlation metadata — raw timestamps carry no
  /// cross-rank meaning to document.
  bool align = true;
  /// Resolve addresses through the ELF symtab (demangled). Off renders
  /// hex; synthetic region names resolve regardless.
  bool symbolize = true;
  /// Symbolise against this binary instead of the recorded path.
  std::string exe_override;
  /// Scratch-file prefix for the speedscope emitter's per-thread
  /// spools. Required for Format::kSpeedscope.
  std::string spool_prefix;
  /// Worker count: >1 decodes trace sections on a worker pool and
  /// prefetches batches ahead of the emitter. Output bytes are identical
  /// at any count (emission itself stays ordered on the consumer
  /// thread); 1 is the historical serial path.
  unsigned threads = 1;
  /// tempest-diff findings to mark on the timeline (perfetto only; the
  /// speedscope format has no instant/metadata vocabulary for them).
  std::vector<DiffAnnotation> annotations;
};

struct ExportRunResult {
  ExportStats stats;
  /// Residual-skew findings plus non-fatal setup notes (e.g. a missing
  /// symbol table); callers print these to stderr.
  std::vector<std::string> warnings;
};

/// Export `paths` (one trace per rank; >1 requires fan-in merge) to
/// `out` in `options.format`. Errors (unreadable trace, a node lagging
/// past the order window, write failure) come back as a Status;
/// warnings ride the result.
Result<ExportRunResult> run_export(const std::vector<std::string>& paths,
                                   std::ostream& out,
                                   const ExportRunOptions& options);

}  // namespace tempest::exporter
