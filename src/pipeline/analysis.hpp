// Streaming analysis: fold batches into a RunProfile (+ thermal series).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "parser/profile.hpp"
#include "parser/timeline.hpp"
#include "parser/timeline_shard.hpp"
#include "pipeline/stage.hpp"
#include "report/series.hpp"
#include "symtab/resolver.hpp"

namespace tempest::pipeline {

struct AnalysisOptions {
  parser::ProfileOptions profile;
  /// Symbolise against this path instead of the one recorded in the
  /// trace (tempest_parse --exe).
  std::string exe_override;
  /// Also extract the thermal time series (csv/plot/gnuplot outputs).
  bool want_series = false;
  std::vector<std::string> span_functions;
  /// Initial function-address table capacity hint for the timeline
  /// accumulator; 0 picks a small default. analyze_trace sizes it from
  /// the known event count, matching build_timeline.
  std::size_t timeline_hint = 0;
  /// Timeline fold workers. 1 (the default) folds inline on the calling
  /// thread — the exact pre-sharding code path; N > 1 shards the fold
  /// across N worker threads with bit-identical results (the ordering
  /// and merge guarantees live in parser/timeline_shard.hpp).
  unsigned threads = 1;
  /// Attribute temperature samples to functions: the thermal profile
  /// (per-sensor stats, significance, the series). Off, the fold keeps
  /// calls and time only — samples still widen the run's bounds, so an
  /// activation open at the end closes where it would have, but reach
  /// neither the timeline nor the assembler, and may arrive in any
  /// order. The collector, which serves no thermal data, turns it off;
  /// every offline tool keeps it on, and want_series needs it.
  bool thermal = true;
};

struct AnalysisResult {
  parser::RunProfile profile;
  report::ThermalSeries series;  ///< meaningful only when has_series
  bool has_series = false;
  /// The trace's RUNSTATS trailer, passed through for the report
  /// emitters (absent for pre-RUNSTATS traces).
  trace::RunStats run_stats;
};

/// The analysis fold: metadata once, then aligned, time-sorted sample
/// batches, then time-sorted event batches, then finish() — the order
/// OrderCheckStage emits. Folds into TimelineAccumulator and
/// ProfileAssembler; the timeline credits samples as it replays the
/// events, so peak memory is O(functions + samples + open activations),
/// not O(events). This is the one place that checks the fold's sample
/// order. With `thermal` off no sample is kept: O(functions + open
/// activations), with samples and events in any order. The run's
/// bounds are the ends of the sorted streams.
class AnalysisPipeline {
 public:
  explicit AnalysisPipeline(AnalysisOptions options = {});

  /// Must precede the first batch. Applies exe_override.
  void set_metadata(const TraceMeta& meta);

  /// With `thermal` on, a sample after the first event or behind the
  /// sample before it is an error, and the pipeline must not be fed on.
  Status add_temp_samples(const trace::TempSample* samples, std::size_t n);
  void add_fn_events(const trace::FnEvent* events, std::size_t n);

  /// Symbolise, attribute, assemble. When `resolver` is null one is
  /// built from the recorded executable (falling back to hex addresses,
  /// same as parse_trace). The pipeline is spent afterwards.
  AnalysisResult finish(const symtab::Resolver* resolver = nullptr);

 private:
  AnalysisOptions options_;
  TraceMeta meta_;
  std::optional<parser::ShardedTimelineAccumulator> timeline_;
  parser::ProfileAssembler assembler_;
  std::uint64_t start_tsc_ = 0;  ///< over events and samples, 0 when empty
  std::uint64_t end_tsc_ = 0;
  std::uint64_t last_sample_tsc_ = 0;
  bool any_records_ = false;
  bool any_events_ = false;
};

/// Analyze a raw in-memory trace, as recorded, through the one analysis
/// path (TraceInput): the entry point of parse_trace, the examples and
/// the benches. `align` off orders records by their recorded tsc.
Result<AnalysisResult> analyze_trace(const trace::Trace& trace,
                                     AnalysisOptions options = {},
                                     const symtab::Resolver* resolver = nullptr,
                                     bool align = true);

}  // namespace tempest::pipeline
