// Function timeline reconstruction with online sample attribution.
//
// This is the capability the paper built Tempest for instead of
// modifying gprof: gprof's buckets cannot say *which function was
// executing at time X*, but thermal samples arrive in real time and the
// same function may run at different temperatures at different moments.
// The builder replays each thread's entry/exit stream and credits every
// temperature sample to each function open on its node at that instant
// (§3.2's inclusive attribution), handling the Table 1 cases:
// interleaving (D) and recursion with interleaving (E) — a recursive
// function's nested activations collapse into one activation per
// outermost call, so neither time nor samples are double-counted.
//
// Attribution happens during the replay, not after it. The fold takes
// every sample before the first event, each node's samples in time
// order — the order every pipeline Source emits. Each node keeps its
// samples' timestamps and a cursor; at every outermost enter and exit
// the cursor moves to the first sample at or after that tsc, and an
// activation [b, e) credits the sample positions [cursor(b), cursor(e))
// as it closes. Fold state is O(functions + samples + open activations)
// for every trace; a fold given no samples credits none and keeps calls
// and time only.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "trace/trace.hpp"

namespace tempest::parser {

/// Half-open tick interval [begin, end).
struct Interval {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint64_t length() const { return end > begin ? end - begin : 0; }
};

/// Half-open run [first, last) of positions in one node's sample stream:
/// that node's temperature samples in arrival order, counted from 0.
/// Positions are 32-bit; a node holds fewer than 2^32 samples (a 4 Hz
/// sensor takes 34 years to get there).
struct SampleRange {
  std::uint32_t first = 0;
  std::uint32_t last = 0;
};

/// All activity of one function address on one node.
struct FunctionActivity {
  std::uint64_t addr = 0;
  std::uint16_t node_id = 0;
  /// The node's samples taken while any of its threads had the function
  /// open (inclusive attribution): ascending, coalesced position ranges,
  /// each sample credited once however many threads ran the function.
  std::vector<SampleRange> samples;
  /// Earliest activation begin and latest activation end; UINT64_MAX
  /// and 0 while `activations` is 0.
  std::uint64_t first_begin = UINT64_MAX;
  std::uint64_t last_end = 0;
  /// Sorted, non-overlapping union of the activations across the node's
  /// threads — kept only for functions the fold's SpanFilter selects.
  std::vector<Interval> spans;
  /// Inclusive busy ticks, summed per thread (so two ranks running the
  /// function concurrently both count).
  std::uint64_t total_ticks = 0;
  std::uint64_t calls = 0;
  /// Outermost activations closed (the per-call duration sample count;
  /// under recursion this is smaller than `calls`, which counts every
  /// enter).
  std::uint64_t activations = 0;
  /// Exact sum of squared activation lengths, in ticks². 128-bit integer
  /// so the per-call duration mean/variance derive exactly: integer sums
  /// commute, keeping the sharded fold bit-identical to the serial one
  /// regardless of merge order (a float Welford fold would not).
  unsigned __int128 ticks_sq = 0;
};

struct TimelineDiagnostics {
  std::uint64_t unmatched_exits = 0;  ///< exit with no open activation
  std::uint64_t force_closed = 0;     ///< still open at trace end
};

/// Key: (node_id, function address).
using TimelineMap = std::map<std::pair<std::uint16_t, std::uint64_t>, FunctionActivity>;

/// Decides once per function address whether the fold keeps that
/// function's activation intervals (FunctionActivity::spans). The
/// sharded fold calls it from its worker threads.
using SpanFilter = std::function<bool(std::uint64_t addr)>;

/// Incremental timeline builder: the streaming core behind
/// build_timeline. Feed every sample batch, then the event batches
/// (per-thread event order is what the replay needs), then finish()
/// closes still-open activations at `end_tsc` and assembles the map.
/// Folding N batches produces bit-identical output to one batch of the
/// concatenation.
class TimelineAccumulator {
 public:
  /// `threads` maps thread ids to nodes (copied); `hint` sizes the
  /// function-address table (0 = small default, tables grow as needed).
  explicit TimelineAccumulator(const std::vector<trace::ThreadInfo>& threads,
                               std::size_t hint = 0, SpanFilter keep_spans = {});
  ~TimelineAccumulator();
  TimelineAccumulator(TimelineAccumulator&&) noexcept;
  TimelineAccumulator& operator=(TimelineAccumulator&&) noexcept;

  /// Append samples to their nodes' streams. Every sample must arrive
  /// before the first event, and each node's samples in time order:
  /// activations credit the streams as they close.
  void add_samples(const trace::TempSample* samples, std::size_t n);
  void add_events(const trace::FnEvent* events, std::size_t n);

  /// Force-close open activations at `end_tsc` and return the finished
  /// map. The accumulator is spent afterwards.
  ///
  /// `keep_empty` retains entries with no activation (call counts
  /// recorded under one node while the activations landed on another —
  /// possible only for threads missing from the metadata). The sharded
  /// fold needs them: the "drop empty" rule must apply to the union
  /// across shards, not to each shard alone, or calls that a sibling
  /// shard's activations would have kept alive disappear.
  TimelineMap finish(std::uint64_t end_tsc, TimelineDiagnostics* diag = nullptr,
                     bool keep_empty = false);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Build the timeline of a whole trace (samples first, then events).
/// Batch wrapper over TimelineAccumulator.
TimelineMap build_timeline(const trace::Trace& trace, TimelineDiagnostics* diag = nullptr,
                           SpanFilter keep_spans = {});

/// Sort and coalesce an interval list in place (overlaps and adjacency).
void merge_intervals(std::vector<Interval>* intervals);

/// Sort and coalesce a sample-range list in place.
void merge_sample_ranges(std::vector<SampleRange>* ranges);

}  // namespace tempest::parser
