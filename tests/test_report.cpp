// Report formats: the Fig 2a standard output layout, CSV series (built
// by the analysis pass), ASCII plots, JSON.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "pipeline/analysis.hpp"
#include "report/ascii_plot.hpp"
#include "report/json.hpp"
#include "report/series.hpp"
#include "report/stdout_format.hpp"

namespace {

using namespace tempest;
using namespace tempest::report;

parser::RunProfile sample_profile() {
  parser::RunProfile profile;
  profile.unit = TempUnit::kFahrenheit;
  profile.duration_s = 60.32;

  parser::NodeProfile node;
  node.node_id = 0;
  node.hostname = "node1";
  node.duration_s = 60.32;

  parser::FunctionProfile main_fn;
  main_fn.name = "main";
  main_fn.total_time_s = 60.319929;
  main_fn.calls = 1;
  main_fn.significant = true;
  parser::SensorProfile s1;
  s1.sensor_id = 0;
  s1.name = "sensor1";
  s1.sample_count = 240;
  s1.stats = {240, 114.0, 120.72, 124.0, 2.73, 7.45, 121.0, 124.0};
  parser::SensorProfile s2;
  s2.sensor_id = 1;
  s2.name = "sensor2";
  s2.sample_count = 240;
  s2.stats = {240, 94.0, 95.12, 97.0, 0.56, 0.32, 95.0, 95.0};
  main_fn.sensors = {s1, s2};

  parser::FunctionProfile foo2;
  foo2.name = "foo2";
  foo2.total_time_s = 0.000159;
  foo2.calls = 2;
  foo2.significant = false;
  foo2.sensors = {s1};

  node.functions = {main_fn, foo2};
  profile.nodes = {node};
  return profile;
}

TEST(StdoutFormat, MatchesPaperLayout) {
  std::ostringstream out;
  print_profile(out, sample_profile());
  const std::string text = out.str();
  EXPECT_NE(text.find("Function: main"), std::string::npos);
  EXPECT_NE(text.find("Total Time(sec): 60.319929"), std::string::npos);
  // Header row with the seven statistics, in the paper's order.
  EXPECT_NE(text.find("Min"), std::string::npos);
  const auto min_pos = text.find("Min");
  EXPECT_LT(min_pos, text.find("Avg"));
  EXPECT_LT(text.find("Avg"), text.find("Max"));
  EXPECT_LT(text.find("Max"), text.find("Sdv"));
  EXPECT_LT(text.find("Sdv"), text.find("Var"));
  EXPECT_LT(text.find("Var"), text.find("Med"));
  EXPECT_LT(text.find("Med"), text.find("Mod"));
  // Sensor rows with 2-decimal values.
  EXPECT_NE(text.find("sensor1"), std::string::npos);
  EXPECT_NE(text.find("120.72"), std::string::npos);
  EXPECT_NE(text.find("114.00"), std::string::npos);
  // Insignificant marker on foo2.
  EXPECT_NE(text.find("[thermal data not significant]"), std::string::npos);
}

TEST(StdoutFormat, OptionsFilterOutput) {
  std::ostringstream out;
  StdoutOptions options;
  options.show_insignificant = false;
  options.max_functions = 1;
  options.node_headers = false;
  print_profile(out, sample_profile(), options);
  const std::string text = out.str();
  EXPECT_NE(text.find("Function: main"), std::string::npos);
  EXPECT_EQ(text.find("foo2"), std::string::npos);
  EXPECT_EQ(text.find("== Node"), std::string::npos);
}

trace::Trace series_trace() {
  trace::Trace t;
  t.tsc_ticks_per_second = 1e9;
  t.nodes = {{0, "node1"}, {1, "node2"}};
  t.sensors = {{0, 0, "cpu", 1.0}, {1, 0, "cpu", 1.0}};
  t.threads = {{0, 0, 0}};
  t.synthetic_symbols = {{trace::kSyntheticAddrBase, "phase1"}};
  t.fn_events = {{0, trace::kSyntheticAddrBase, 0, 0, trace::FnEventKind::kEnter},
                 {2'000'000'000, trace::kSyntheticAddrBase, 0, 0, trace::FnEventKind::kExit}};
  for (int i = 0; i < 8; ++i) {
    t.temp_samples.push_back(
        {static_cast<std::uint64_t>(i) * 500'000'000ULL, 30.0 + i, 0, 0});
    t.temp_samples.push_back(
        {static_cast<std::uint64_t>(i) * 500'000'000ULL, 28.0, 1, 0});
  }
  t.sort_by_time();
  return t;
}

/// The thermal series the analysis pass builds beside the profile.
ThermalSeries series_of(const trace::Trace& t, TempUnit unit,
                        const std::vector<std::string>& span_functions = {}) {
  pipeline::AnalysisOptions options;
  options.profile.unit = unit;
  options.want_series = true;
  options.span_functions = span_functions;
  auto analyzed = pipeline::analyze_trace(t, options);
  EXPECT_TRUE(analyzed.is_ok()) << analyzed.message();
  return analyzed.is_ok() ? std::move(analyzed).value().series : ThermalSeries{};
}

TEST(Series, ExtractsPerNodeCurvesAndSpans) {
  const auto series = series_of(series_trace(), TempUnit::kCelsius, {"phase1"});
  ASSERT_EQ(series.sensors.size(), 2u);
  EXPECT_EQ(series.sensors[0].node_name, "node1");
  EXPECT_EQ(series.sensors[0].points.size(), 8u);
  EXPECT_DOUBLE_EQ(series.sensors[0].points.front().temp, 30.0);
  EXPECT_DOUBLE_EQ(series.sensors[0].points.back().temp, 37.0);
  EXPECT_NEAR(series.duration_s, 3.5, 1e-9);
  ASSERT_EQ(series.spans.size(), 1u);
  EXPECT_EQ(series.spans[0].name, "phase1");
  EXPECT_NEAR(series.spans[0].end_s - series.spans[0].begin_s, 2.0, 1e-9);
}

TEST(Series, FahrenheitConversionAppliesToPoints) {
  const auto series = series_of(series_trace(), TempUnit::kFahrenheit);
  EXPECT_DOUBLE_EQ(series.sensors[0].points.front().temp, 86.0);
  EXPECT_TRUE(series.spans.empty());  // no names requested
}

TEST(Series, CsvHasHeaderRowsAndSpans) {
  const auto series = series_of(series_trace(), TempUnit::kCelsius, {"phase1"});
  std::ostringstream out;
  write_series_csv(out, series);
  const std::string text = out.str();
  EXPECT_NE(text.find("time_s,node,sensor,temp_C"), std::string::npos);
  EXPECT_NE(text.find("node1,cpu,30"), std::string::npos);
  EXPECT_NE(text.find("# span,0,phase1"), std::string::npos);
}

TEST(AsciiPlot, RendersChartsPerNode) {
  const auto series = series_of(series_trace(), TempUnit::kFahrenheit, {"phase1"});
  std::ostringstream out;
  plot_series(out, series);
  const std::string text = out.str();
  EXPECT_NE(text.find("--- node1 ---"), std::string::npos);
  EXPECT_NE(text.find("--- node2 ---"), std::string::npos);
  EXPECT_NE(text.find("legend: *=cpu"), std::string::npos);
  EXPECT_NE(text.find("spans: phase1"), std::string::npos);
  EXPECT_NE(text.find("(F)"), std::string::npos);
}

TEST(AsciiPlot, EmptySeriesDoesNotCrash) {
  std::ostringstream out;
  plot_series(out, ThermalSeries{});
  EXPECT_NE(out.str().find("no temperature samples"), std::string::npos);
}

TEST(Json, WellFormedAndComplete) {
  std::ostringstream out;
  write_profile_json(out, sample_profile());
  const std::string text = out.str();
  EXPECT_EQ(text.front(), '{');
  EXPECT_EQ(text.back(), '}');
  EXPECT_NE(text.find("\"unit\":\"F\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"main\""), std::string::npos);
  EXPECT_NE(text.find("\"significant\":false"), std::string::npos);
  EXPECT_NE(text.find("\"avg\":120.72"), std::string::npos);
  // Balanced braces/brackets.
  int depth = 0;
  for (char c : text) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(Json, EscapesSpecialCharacters) {
  parser::RunProfile profile;
  parser::NodeProfile node;
  node.hostname = "evil\"node\\with\nnewline";
  profile.nodes.push_back(node);
  std::ostringstream out;
  write_profile_json(out, profile);
  EXPECT_NE(out.str().find("evil\\\"node\\\\with\\nnewline"), std::string::npos);
}

}  // namespace
