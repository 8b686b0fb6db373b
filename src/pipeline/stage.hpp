// Composable streaming analysis pipeline: the vocabulary.
//
// The paper's parser is a post-mortem batch step — load the whole
// merged trace, rebuild the timeline, attribute samples, print. This
// library restructures that as Source -> Stage* -> BatchSink* over
// bounded record batches, so a trace (or N per-rank traces) streams
// through analysis with peak memory bounded by the batch size plus the
// consumers' own aggregates — per function and per sample, not per
// event — instead of the full event vector. Every entry point, the
// in-memory parse_trace included, runs this one path.
//
// Ordering contract: a Source keeps each node's records of a kind in
// time order and emits every temperature sample before the first fn
// event. Clock syncs are not streamed: the trace reader reads them
// ahead, with the samples and the trailers, and they reach
// ClockAlignStage as whole-trace fits. Clock alignment shifts the nodes against each other, so
// OrderCheckStage then restores global time order across nodes within a
// bounded window; downstream of it, each record kind is in global time
// order across batches (events sorted, samples sorted), as a stable
// sort of the aligned trace would leave them. Samples first is the
// analysis fold's requirement: it credits each sample while it replays
// the events, in memory independent of the event count, and
// AnalysisPipeline rejects a sample that arrives after an event.
#pragma once

#include <cstddef>
#include <vector>

#include "common/status.hpp"
#include "trace/trace.hpp"

namespace tempest::pipeline {

/// Run-level metadata travels once, out of band of the record batches.
using TraceMeta = trace::TraceHeader;

/// Default records per batch. 64 Ki events is ~1.4 MiB — big enough to
/// amortise virtual dispatch and the reader's 256 KiB staging chunks,
/// small enough that a dozen in-flight batches stay cache-friendly.
inline constexpr std::size_t kDefaultBatchRecords = std::size_t{1} << 16;

struct BatchOptions {
  std::size_t batch_records = kDefaultBatchRecords;
};

/// One bounded slice of the record streams. A batch usually carries a
/// single kind (the trace format stores kinds in separate sections);
/// consumers must not assume that.
struct EventBatch {
  std::vector<trace::FnEvent> fn_events;
  std::vector<trace::TempSample> temp_samples;
  /// Set by run_pipeline on the batch that ends the stream (empty when
  /// the source's last call brought no records), so a stage holding
  /// records back can flush them into it.
  bool end_of_stream = false;

  bool empty() const { return fn_events.empty() && temp_samples.empty(); }
  /// Clears contents, keeps capacity — run_pipeline recycles one batch.
  void clear() {
    fn_events.clear();
    temp_samples.clear();
    end_of_stream = false;
  }
};

/// Produces the batch stream (a trace file, an in-memory trace, a
/// multi-rank fan-in merge).
class Source {
 public:
  virtual ~Source() = default;

  /// Combined run metadata, complete (trailers included) before the
  /// first batch and unchanged for the source's lifetime.
  virtual const TraceMeta& meta() const = 0;

  /// Fill `out` (cleared by the caller) with the next batch. Sets
  /// *done once the stream is exhausted; the final call may deliver
  /// both a batch and *done. An error Status aborts the run.
  virtual Status next(EventBatch* out, bool* done) = 0;
};

/// Transforms batches in flight (clock alignment, cross-node ordering).
class Stage {
 public:
  virtual ~Stage() = default;
  virtual Status process(const TraceMeta& meta, EventBatch* batch) = 0;
};

/// Consumes the (post-stage) batch stream.
class BatchSink {
 public:
  virtual ~BatchSink() = default;
  virtual Status begin(const TraceMeta& /*meta*/) { return Status::ok(); }
  virtual Status on_batch(const TraceMeta& meta, const EventBatch& batch) = 0;
  virtual Status on_end(const TraceMeta& /*meta*/) { return Status::ok(); }
};

/// Drive `source` to exhaustion: each batch flows through `stages` in
/// order, then to every sink that still has records to see. The batch
/// that ends the stream always runs through the stages, marked
/// end_of_stream. Stops at the first error. Sinks see begin() before
/// any batch and on_end() only if everything succeeded.
Status run_pipeline(Source* source, const std::vector<Stage*>& stages,
                    const std::vector<BatchSink*>& sinks);

}  // namespace tempest::pipeline
