// Pipeline sources: incremental file reader and in-memory adapter.
#pragma once

#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "pipeline/stage.hpp"
#include "trace/align.hpp"
#include "trace/reader.hpp"

namespace tempest::pipeline {

/// Streams a trace-v2 file through the 256 KiB staged reader, never
/// materialising more than one batch of events — the bounded-memory
/// replacement for read_trace_file + parse. A pre-pass reads the small
/// sample and sync sections ahead (seeking over the event payload and
/// back), so batches come out samples first, then the file's events,
/// then syncs; records are in the raw recorded clock domains. Compose
/// with ClockAlignStage (fed by clock_fits()) and OrderCheckStage to
/// reproduce the batch parser's aligned, sorted stream.
class ChunkedTraceSource : public Source {
 public:
  static Result<ChunkedTraceSource> open(const std::string& path,
                                         BatchOptions options = {});

  const TraceMeta& meta() const override { return reader_->header(); }

  /// Runs the pre-pass on the first call unless clock_fits() or
  /// clock_syncs_ahead() already did.
  Status next(EventBatch* out, bool* done) override;

  /// Whole-trace clock fits from the pre-pass. Must run before the
  /// first next(). Returns an empty map when the trace has no syncs — a
  /// single clock domain.
  Result<std::map<std::uint16_t, trace::ClockFit>> clock_fits();

  /// The raw sync records behind clock_fits(), same pre-pass contract.
  /// The exporters' ClockCorrelator consumes these to report per-rank
  /// skew/drift/residual metadata alongside the fits.
  Result<std::vector<trace::ClockSync>> clock_syncs_ahead();

  /// Decode staged record chunks on `pool`'s workers (see
  /// TraceStreamReader::set_decode_pool). Batches stay byte-identical
  /// to serial decode; nullptr restores serial.
  void set_decode_pool(WorkerPool* pool) { reader_->set_decode_pool(pool); }

 private:
  ChunkedTraceSource() = default;

  /// The pre-pass; a no-op once it has run.
  Status read_ahead();

  std::string path_;
  BatchOptions options_;
  /// Heap-allocated so TraceStreamReader's stream pointer survives
  /// moves of the source.
  std::unique_ptr<std::ifstream> in_;
  std::optional<trace::TraceStreamReader> reader_;
  std::optional<trace::SectionsAhead> ahead_;
  std::size_t sample_pos_ = 0;  ///< samples of ahead_ already emitted
};

/// Adapts an in-memory Trace to the Source interface, yielding slices
/// of its (already prepared — aligned/sorted by the caller) vectors:
/// samples first, then events, then syncs. Used by tests and the export
/// tool's batch path to drive the streaming consumers.
class MemoryTraceSource : public Source {
 public:
  explicit MemoryTraceSource(const trace::Trace& trace, BatchOptions options = {})
      : trace_(&trace), options_(options) {}

  const TraceMeta& meta() const override { return *trace_; }

  Status next(EventBatch* out, bool* done) override;

 private:
  const trace::Trace* trace_;
  BatchOptions options_;
  std::size_t sample_pos_ = 0;
  std::size_t event_pos_ = 0;
  std::size_t sync_pos_ = 0;
};

}  // namespace tempest::pipeline
