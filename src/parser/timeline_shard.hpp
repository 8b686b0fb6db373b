// Sharded timeline fold: the multi-core core of the analysis fast path.
//
// TimelineAccumulator's state decomposes cleanly by thread: the open
// recursion stack is keyed (addr, thread), so every enter/exit pair of
// one thread resolves inside whichever accumulator sees that thread's
// events — and everything the accumulators produce (tick totals, call
// counts, sample-range unions, diagnostics) combines associatively. The
// sharded fold routes each trace thread to a fixed shard
// (thread_id % shards), hands every shard the whole sample stream (each
// shard credits against identical per-node sample positions), feeds
// shards from bounded per-shard FIFO queues so the reader never races
// ahead of the fold by more than a few batches and every shard takes
// the samples before the events, and merges the per-shard maps
// deterministically. The result is bit-identical to the serial
// accumulator: same map, same stats, same diagnostics — which is what
// lets `--threads=N` guarantee byte-equal output against `--threads=1`.
//
// With `shards <= 1` no threads are spawned and records flow through a
// plain TimelineAccumulator inline — exactly the pre-sharding code
// path.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "parser/timeline.hpp"
#include "trace/trace.hpp"

namespace tempest::parser {

/// Deterministically merge per-shard maps produced with
/// `finish(..., keep_empty = true)`: tick totals and call counts sum,
/// sample ranges and spans union, activity bounds widen, and entries
/// with no activation in the combined map drop — the same rule the
/// serial accumulator applies, now over the union. Consumes the parts.
TimelineMap merge_timeline_maps(std::vector<TimelineMap>* parts);

class ShardedTimelineAccumulator {
 public:
  /// `threads`/`hint`/`keep_spans` as TimelineAccumulator; `shards` is
  /// the worker count (<= 1 means inline serial).
  ShardedTimelineAccumulator(const std::vector<trace::ThreadInfo>& threads,
                             std::size_t hint, unsigned shards,
                             SpanFilter keep_spans = {});
  ~ShardedTimelineAccumulator();

  ShardedTimelineAccumulator(const ShardedTimelineAccumulator&) = delete;
  ShardedTimelineAccumulator& operator=(const ShardedTimelineAccumulator&) =
      delete;

  /// Same contracts as TimelineAccumulator::add_samples / add_events;
  /// records are copied out before the call returns, so the caller may
  /// recycle the batch buffer immediately.
  void add_samples(const trace::TempSample* samples, std::size_t n);
  void add_events(const trace::FnEvent* events, std::size_t n);

  /// Flush the shard queues, close activations at `end_tsc` and merge.
  /// The accumulator is spent afterwards.
  TimelineMap finish(std::uint64_t end_tsc, TimelineDiagnostics* diag = nullptr);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;  ///< set when shards > 1
  std::optional<TimelineAccumulator> serial_;  ///< set when shards <= 1
};

}  // namespace tempest::parser
