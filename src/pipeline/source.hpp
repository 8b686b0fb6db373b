// Pipeline sources: incremental file reader, in-memory adapter, and
// TraceInput, the one analysis path that composes a source with the
// stages.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/worker_pool.hpp"
#include "pipeline/prefetch.hpp"
#include "pipeline/rank_fanin.hpp"
#include "pipeline/stage.hpp"
#include "pipeline/stages.hpp"
#include "trace/align.hpp"
#include "trace/reader.hpp"

namespace tempest::pipeline {

/// Streams a trace-v2 file: samples first, from the reader's pre-pass,
/// then the file's events in bounded batches, never materialising more
/// than one batch of events. open() rejects a damaged file — cut,
/// corrupt framing, a bad trailer or trailing bytes — before the first
/// batch, so meta() is complete, trailers included, from the start.
/// Records are in the raw recorded clock domains and the syncs are not
/// streamed: compose with ClockAlignStage (fed by clock_fits()) and
/// OrderCheckStage for the aligned stream in global time order, as
/// TraceInput does.
class ChunkedTraceSource : public Source {
 public:
  static Result<ChunkedTraceSource> open(const std::string& path,
                                         BatchOptions options = {});

  const TraceMeta& meta() const override { return reader_.header(); }

  Status next(EventBatch* out, bool* done) override;

  /// Whole-trace clock fits from the pre-pass. Empty when the trace has
  /// no syncs — a single clock domain.
  Result<std::map<std::uint16_t, trace::ClockFit>> clock_fits();

  /// The raw sync records behind clock_fits(). The exporters'
  /// ClockCorrelator consumes these to report per-rank
  /// skew/drift/residual metadata alongside the fits.
  Result<std::vector<trace::ClockSync>> clock_syncs_ahead();

  /// Decode staged record chunks on `pool`'s workers (see
  /// TraceStreamReader::set_decode_pool). Batches stay byte-identical
  /// to serial decode; nullptr restores serial.
  void set_decode_pool(WorkerPool* pool) { reader_.set_decode_pool(pool); }

 private:
  ChunkedTraceSource(trace::TraceStreamReader reader, BatchOptions options)
      : reader_(std::move(reader)), options_(options) {}

  trace::TraceStreamReader reader_;
  BatchOptions options_;
  std::size_t sample_pos_ = 0;  ///< pre-pass samples already emitted
};

/// Adapts an in-memory Trace to the Source interface, yielding slices
/// of its vectors as they stand — a raw trace, in the recorded clock
/// domains, like a file: samples first, then events. The in-memory entry
/// points (analyze_trace, parse_trace) run it through the same stages
/// as a file.
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
};

/// The one analysis path: a source, ClockAlignStage (unless alignment is
/// off, or the fan-in aligned each rank before it merged), then
/// OrderCheckStage.
class TraceInput {
 public:
  TraceInput() = default;
  TraceInput(const TraceInput&) = delete;  // the read-ahead thread holds its sources
  TraceInput& operator=(const TraceInput&) = delete;

  /// One file streams through ChunkedTraceSource; several, one per
  /// rank, merge through RankFanIn. `align` off orders records by their
  /// recorded tsc. Above 1 `threads`, files decode on
  /// a worker pool and batches are read ahead of the sinks; output
  /// bytes are identical at any count.
  Status open(const std::vector<std::string>& paths, bool align = true,
              unsigned threads = 1, BatchOptions batch = {});
  /// A raw in-memory trace, as recorded; it must outlive the input.
  void open(const trace::Trace& trace, bool align = true, BatchOptions batch = {});

  const TraceMeta& meta() const { return source_->meta(); }
  /// The sync records behind the clock fits (none with alignment off).
  const std::vector<trace::ClockSync>& syncs() const { return syncs_; }

  Status run(const std::vector<BatchSink*>& sinks) {
    return run_pipeline(source_, stages_, sinks);
  }

 private:
  std::optional<WorkerPool> pool_;
  std::optional<ChunkedTraceSource> chunked_;
  std::optional<RankFanIn> fan_;
  std::optional<MemoryTraceSource> memory_;
  std::optional<PrefetchSource> prefetch_;  ///< after the sources: joins first
  std::optional<ClockAlignStage> align_;
  OrderCheckStage order_;
  Source* source_ = nullptr;
  std::vector<Stage*> stages_;
  std::vector<trace::ClockSync> syncs_;
};

}  // namespace tempest::pipeline
