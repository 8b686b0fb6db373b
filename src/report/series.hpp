// Thermal time-series extraction (the data behind Figs 2b, 3, 4).
//
// Builds per-node, per-sensor temperature curves from a clock-aligned,
// time-sorted sample stream plus the execution spans of named functions
// — the x-axis bands drawn "across the top of the figure" in the
// paper's profile plots. The analysis pass builds the series alongside
// the profile (AnalysisOptions::want_series).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "parser/timeline.hpp"
#include "trace/trace.hpp"

namespace tempest::report {

struct SeriesPoint {
  double time_s = 0.0;  ///< relative to trace start
  double temp = 0.0;    ///< in the requested unit
};

struct SensorSeries {
  std::uint16_t node_id = 0;
  std::uint16_t sensor_id = 0;
  std::string node_name;
  std::string sensor_name;
  std::vector<SeriesPoint> points;
};

struct FunctionSpan {
  std::uint16_t node_id = 0;
  std::string name;
  double begin_s = 0.0;
  double end_s = 0.0;
};

struct ThermalSeries {
  TempUnit unit = TempUnit::kFahrenheit;
  double duration_s = 0.0;
  std::vector<SensorSeries> sensors;
  std::vector<FunctionSpan> spans;
};

/// The timeline filter that keeps the intervals of `span_functions`:
/// an address matches when its synthetic symbol, else its name in the
/// recorded executable's symtab, is listed (spans are requested by
/// human-readable name, so there is no hex fallback). Each address
/// resolves once; safe to call from the sharded fold's threads. Empty
/// when no span functions are named.
parser::SpanFilter span_filter(const trace::TraceHeader& meta,
                               const std::vector<std::string>& span_functions);

/// Curves come from metadata plus an already-aligned, time-sorted
/// sample stream, and spans from a timeline the caller has already
/// built with span_filter(meta, span_functions) (required when
/// `span_functions` is non-empty): their merged execution intervals,
/// named by symbolised or synthetic name.
ThermalSeries build_series(const trace::TraceHeader& meta,
                           const std::vector<trace::TempSample>& samples,
                           std::uint64_t start_tsc, std::uint64_t end_tsc,
                           TempUnit unit,
                           const std::vector<std::string>& span_functions = {},
                           const parser::TimelineMap* timeline = nullptr);

/// CSV: time_s,node,sensor,temp — one row per point, spans appended as
/// comment lines ("# span,<node>,<name>,<begin>,<end>").
void write_series_csv(std::ostream& out, const ThermalSeries& series);

}  // namespace tempest::report
