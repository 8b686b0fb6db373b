// Interactive trace export: clock correlation math, the span scrubber's
// nesting policy, Perfetto / speedscope document structure, and the
// export path's bytes against the reference oracle's ordering (single
// file) and the 4-rank fan-in.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "export/clock.hpp"
#include "export/export.hpp"
#include "export/perfetto.hpp"
#include "export/run.hpp"
#include "export/speedscope.hpp"
#include "pipeline/source.hpp"
#include "reference/reference.hpp"
#include "trace/trace.hpp"
#include "trace/writer.hpp"

namespace {

using namespace tempest;
using namespace tempest::trace;
namespace pipeline = tempest::pipeline;
namespace exporter = tempest::exporter;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

/// One rank's trace with a rank-local clock `skew` ticks behind the
/// global clock, pinned by syncs at both ends (same shape as the
/// pipeline tests' multi-rank golden).
Trace rank_trace(std::uint16_t rank, std::uint64_t skew) {
  Trace t;
  t.tsc_ticks_per_second = 1e9;
  t.executable = "";  // no symbol table: names fall back to hex/synthetic
  t.nodes = {{rank, "rank" + std::to_string(rank)}};
  t.sensors = {{rank, 0, "cpu", 1.0}};
  const std::uint32_t tid = rank;
  t.threads = {{tid, rank, 0}};

  const std::uint64_t base = 1000 + rank * 13;
  const auto local = [&](std::uint64_t global) { return global - skew; };
  const std::uint64_t kFnMain = 0x1000, kFnWork = 0x2000 + rank;
  t.fn_events = {
      {local(base + 0), kFnMain, tid, rank, FnEventKind::kEnter},
      {local(base + 100), kFnWork, tid, rank, FnEventKind::kEnter},
      {local(base + 700), kFnWork, tid, rank, FnEventKind::kExit},
      {local(base + 900), kFnMain, tid, rank, FnEventKind::kExit},
  };
  for (std::uint64_t g = base + 40; g < base + 900; g += 200) {
    t.temp_samples.push_back({local(g), 40.0 + rank, rank, 0});
  }
  t.clock_syncs = {{local(base), base, rank},
                   {local(base + 1000), base + 1000, rank}};
  return t;
}

/// Per-rank traces concatenated into one file's worth of records, in
/// path order.
Trace concatenated(const std::vector<Trace>& ranks) {
  Trace combined;
  for (const Trace& r : ranks) {
    combined.append(r);
    combined.fn_events.insert(combined.fn_events.end(), r.fn_events.begin(),
                              r.fn_events.end());
    combined.temp_samples.insert(combined.temp_samples.end(),
                                 r.temp_samples.begin(), r.temp_samples.end());
    combined.clock_syncs.insert(combined.clock_syncs.end(),
                                r.clock_syncs.begin(), r.clock_syncs.end());
  }
  return combined;
}

/// A single-node trace exercising every scrubber branch: a force-closed
/// inner frame, an orphan exit, an unclosed frame at trace end, and a
/// synthetic region name.
Trace unbalanced_trace() {
  Trace t;
  t.tsc_ticks_per_second = 1e6;  // 1 tick = 1 us
  t.nodes = {{0, "host"}};
  t.sensors = {{0, 0, "cpu", 1.0}};
  t.threads = {{0, 0, 0}};
  const std::uint64_t kRegion = kSyntheticAddrBase + 1;
  t.synthetic_symbols = {{kRegion, "my region"}};
  t.fn_events = {
      {10, 0x1000, 0, 0, FnEventKind::kEnter},
      {20, 0x2000, 0, 0, FnEventKind::kEnter},
      {30, 0x1000, 0, 0, FnEventKind::kExit},  // closes 0x2000 first (forced)
      {40, 0x2000, 0, 0, FnEventKind::kExit},  // orphan: dropped
      {50, kRegion, 0, 0, FnEventKind::kEnter},  // open at end: force-closed
  };
  t.temp_samples = {{15, 41.0, 0, 0}, {35, 42.0, 0, 0}, {55, 43.0, 0, 0}};
  t.sort_by_time();
  return t;
}

TEST(ClockCorrelator, PureOffsetSkewReportedInMicroseconds) {
  // 1 tick = 1 us; the node clock runs exactly 500 ticks behind.
  std::vector<ClockSync> syncs = {{1000, 1500, 1}, {2000, 2500, 1}};
  exporter::ClockCorrelator correlator(1e6, syncs);
  ASSERT_EQ(correlator.ranks().size(), 1u);
  const exporter::RankClock& rank = correlator.ranks()[0];
  EXPECT_EQ(rank.node_id, 1);
  EXPECT_EQ(rank.sync_count, 2u);
  EXPECT_NEAR(rank.skew_us, 500.0, 1e-6);
  EXPECT_NEAR(rank.drift_ppm, 0.0, 1e-6);
  EXPECT_NEAR(rank.residual_us, 0.0, 1e-6);
  EXPECT_NEAR(correlator.max_residual_us(), 0.0, 1e-6);
}

TEST(ClockCorrelator, DriftReportedInPartsPerMillion) {
  // Global gains 1000 ticks over 1e6: slope 1.001 = 1000 ppm fast.
  std::vector<ClockSync> syncs = {{0, 0, 0}, {1000000, 1001000, 0}};
  exporter::ClockCorrelator correlator(1e6, syncs);
  ASSERT_EQ(correlator.ranks().size(), 1u);
  EXPECT_NEAR(correlator.ranks()[0].drift_ppm, 1000.0, 1e-3);
  EXPECT_NEAR(correlator.ranks()[0].residual_us, 0.0, 1e-6);
}

TEST(ClockCorrelator, NonlinearSyncsLeaveResidualAndTriggerWarning) {
  // Three observations no line explains: the middle one is 100 ticks
  // off any affine fit through the endpoints.
  std::vector<ClockSync> syncs = {{0, 0, 0}, {1000, 1100, 0}, {2000, 2000, 0}};
  exporter::ClockCorrelator correlator(1e6, syncs);
  EXPECT_GT(correlator.max_residual_us(), 10.0);
  // Residual above the sample period: warn. Below: quiet.
  EXPECT_EQ(exporter::correlation_warnings(correlator, 1.0).size(), 1u);
  EXPECT_TRUE(exporter::correlation_warnings(correlator, 1e9).empty());
  EXPECT_TRUE(exporter::correlation_warnings(correlator, 0.0).empty());
}

TEST(ClockCorrelator, BaseRebasesTimestampsToMicroseconds) {
  exporter::ClockCorrelator correlator(2e6, {});  // 2 ticks per us
  EXPECT_FALSE(correlator.has_base());
  correlator.set_base(1000);
  EXPECT_TRUE(correlator.has_base());
  EXPECT_DOUBLE_EQ(correlator.to_us(1000), 0.0);
  EXPECT_DOUBLE_EQ(correlator.to_us(1200), 100.0);
  EXPECT_DOUBLE_EQ(correlator.to_us(800), -100.0);  // pre-base maps negative
  EXPECT_DOUBLE_EQ(correlator.ticks_to_us(500.0), 250.0);
}

TEST(SamplePeriodEstimator, TracksTightestPerSensorMeanGap) {
  exporter::SamplePeriodEstimator estimator;
  EXPECT_DOUBLE_EQ(estimator.period_ticks(), 0.0);
  for (std::uint64_t tsc : {0, 100, 200}) {
    estimator.observe({tsc, 40.0, 0, 0});  // sensor 0: period 100
  }
  for (std::uint64_t tsc : {0, 300}) {
    estimator.observe({tsc, 40.0, 0, 1});  // sensor 1: period 300
  }
  EXPECT_DOUBLE_EQ(estimator.period_ticks(), 100.0);
}

TEST(SpanScrubber, DropsOrphansAndForceClosesInnerFrames) {
  exporter::SpanScrubber scrubber;
  const exporter::SpanScrubber::ThreadKey key{0, 0};
  std::vector<std::uint64_t> to_close;

  EXPECT_FALSE(scrubber.close(key, 0x1000, &to_close));  // nothing open

  scrubber.push(key, 0x1000);
  scrubber.push(key, 0x2000);
  scrubber.push(key, 0x3000);
  ASSERT_TRUE(scrubber.close(key, 0x1000, &to_close));
  // Innermost first: 0x3000 and 0x2000 are force-closures, then 0x1000.
  ASSERT_EQ(to_close.size(), 3u);
  EXPECT_EQ(to_close[0], 0x3000u);
  EXPECT_EQ(to_close[1], 0x2000u);
  EXPECT_EQ(to_close[2], 0x1000u);

  EXPECT_FALSE(scrubber.close(key, 0x2000, &to_close));  // now orphaned
  EXPECT_TRUE(to_close.empty());
}

TEST(PerfettoExporter, BalancedDocumentFromUnbalancedInput) {
  const Trace t = unbalanced_trace();
  pipeline::MemoryTraceSource source(t);
  std::ostringstream out;
  exporter::PerfettoExporter sink(
      out, exporter::ClockCorrelator(t.tsc_ticks_per_second, {}));
  const Status ran = pipeline::run_pipeline(&source, {}, {&sink});
  ASSERT_TRUE(ran) << ran.message();

  const std::string json = out.str();
  // Every emitted B has an E: 3 enters survive (one orphan exit
  // dropped), so 3 opens, 3 closes.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"B\""), 3u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"E\""), 3u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"C\""), 3u);  // temp samples
  // Name precedence: synthetic region resolves, code addresses render
  // hex without a symbol table.
  EXPECT_NE(json.find("\"name\":\"my region\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"0x1000\""), std::string::npos);
  // Track naming metadata and the correlation/accounting trailer.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"metadata\""), std::string::npos);

  EXPECT_EQ(sink.stats().spans_dropped, 1u);
  // 0x2000 closed by 0x1000's exit + the region open at trace end.
  EXPECT_EQ(sink.stats().spans_force_closed, 2u);
  EXPECT_EQ(sink.stats().events_exported, 9u);  // 3 B + 3 E + 3 C
  EXPECT_EQ(sink.stats().bytes_written, out.str().size());
}

TEST(SpeedscopeExporter, BalancedEventedProfileWithSharedFrames) {
  const Trace t = unbalanced_trace();
  pipeline::MemoryTraceSource source(t);
  std::ostringstream out;
  const std::string spool_prefix = temp_path("ss_unbalanced");
  exporter::SpeedscopeExporter sink(
      out, exporter::ClockCorrelator(t.tsc_ticks_per_second, {}),
      spool_prefix);
  const Status ran = pipeline::run_pipeline(&source, {}, {&sink});
  ASSERT_TRUE(ran) << ran.message();

  const std::string json = out.str();
  EXPECT_NE(json.find("speedscope.app/file-format-schema.json"),
            std::string::npos);
  EXPECT_EQ(count_occurrences(json, "\"type\":\"O\""), 3u);
  EXPECT_EQ(count_occurrences(json, "\"type\":\"C\""), 3u);
  EXPECT_EQ(count_occurrences(json, "\"type\":\"evented\""), 1u);
  EXPECT_NE(json.find("\"name\":\"my region\""), std::string::npos);
  EXPECT_EQ(sink.stats().spans_dropped, 1u);
  EXPECT_EQ(sink.stats().spans_force_closed, 2u);

  // The per-thread spool is scratch, removed after stitching.
  std::ifstream spool(spool_prefix + ".t0_0.spool");
  EXPECT_FALSE(spool.is_open());
}

TEST(RunExport, StreamAndBatchBytesIdentical) {
  // One file holding four skewed nodes, written in raw-tsc order as the
  // recorder writes it, so alignment leaves it out of order between
  // nodes. run_export's one path must write the bytes the exporter
  // writes when fed the reference oracle's aligned, stable-sorted
  // records directly.
  std::vector<Trace> ranks;
  for (std::uint16_t r = 0; r < 4; ++r) ranks.push_back(rank_trace(r, 40 * r));
  Trace t = concatenated(ranks);
  t.sort_by_time();
  const std::string path = temp_path("export_eq.trace");
  ASSERT_TRUE(write_trace_file(path, t));
  Trace oracle = t;
  parser::reference::align_clocks_seed(&oracle);

  for (const exporter::Format format :
       {exporter::Format::kPerfetto, exporter::Format::kSpeedscope}) {
    exporter::ExportRunOptions options;
    options.format = format;
    options.spool_prefix = temp_path("export_eq_spool");
    std::ostringstream got;
    auto ran = exporter::run_export({path}, got, options);
    ASSERT_TRUE(ran.is_ok()) << ran.message();

    std::ostringstream want;
    pipeline::MemoryTraceSource source(oracle);
    exporter::ClockCorrelator correlator(t.tsc_ticks_per_second, t.clock_syncs);
    std::optional<exporter::PerfettoExporter> perfetto;
    std::optional<exporter::SpeedscopeExporter> speedscope;
    pipeline::BatchSink* sink = nullptr;
    if (format == exporter::Format::kPerfetto) {
      sink = &perfetto.emplace(want, std::move(correlator));
    } else {
      sink = &speedscope.emplace(want, std::move(correlator), options.spool_prefix);
    }
    ASSERT_TRUE(pipeline::run_pipeline(&source, {}, {sink}));

    EXPECT_EQ(got.str(), want.str());
    EXPECT_GT(ran.value().stats.events_exported, 0u);
    EXPECT_EQ(ran.value().stats.bytes_written, got.str().size());
  }
}

TEST(RunExport, FourRankFanInCorrelatesClocks) {
  std::vector<std::string> paths;
  for (std::uint16_t r = 0; r < 4; ++r) {
    Trace t = rank_trace(r, 40 * r);
    t.sort_by_time();
    paths.push_back(temp_path("export_rank" + std::to_string(r) + ".trace"));
    ASSERT_TRUE(write_trace_file(paths[r], t));
  }

  exporter::ExportRunOptions options;
  std::ostringstream out;
  auto ran = exporter::run_export(paths, out, options);
  ASSERT_TRUE(ran.is_ok()) << ran.message();

  const std::string json = out.str();
  // One process track per rank, all four event sets present, balanced.
  for (int r = 0; r < 4; ++r) {
    EXPECT_NE(json.find("\"name\":\"rank " + std::to_string(r)),
              std::string::npos);
    EXPECT_NE(json.find("\"node_id\":" + std::to_string(r)),
              std::string::npos);
  }
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"B\""), 8u);  // 2 fns x 4 ranks
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"E\""), 8u);
  // The 40-tick-per-rank skews the fits removed show up as metadata.
  EXPECT_NE(json.find("\"clock_correlation\""), std::string::npos);
  EXPECT_NE(json.find("\"max_residual_us\""), std::string::npos);
  EXPECT_EQ(ran.value().stats.spans_dropped, 0u);
}

TEST(RunExport, RejectsBadInputs) {
  EXPECT_FALSE(exporter::run_export({}, std::cout, {}).is_ok());

  // A fan-in honours --no-align; what fails here is the missing file,
  // named with its path.
  exporter::ExportRunOptions options;
  options.align = false;
  auto two = exporter::run_export({"a.trace", "b.trace"}, std::cout, options);
  ASSERT_FALSE(two.is_ok());
  EXPECT_EQ(two.message(), "a.trace: cannot open trace file");

  exporter::ExportRunOptions speedscope;
  speedscope.format = exporter::Format::kSpeedscope;  // no spool prefix
  EXPECT_FALSE(exporter::run_export({"a.trace"}, std::cout, speedscope).is_ok());

  exporter::ExportRunOptions ok;
  auto missing = exporter::run_export({temp_path("absent.trace")}, std::cout, ok);
  EXPECT_FALSE(missing.is_ok());
}

TEST(RunExport, ParseFormatNamesAndAliases) {
  exporter::Format format = exporter::Format::kSpeedscope;
  EXPECT_TRUE(exporter::parse_format("perfetto", &format));
  EXPECT_EQ(format, exporter::Format::kPerfetto);
  EXPECT_TRUE(exporter::parse_format("chrome", &format));
  EXPECT_EQ(format, exporter::Format::kPerfetto);
  EXPECT_TRUE(exporter::parse_format("speedscope", &format));
  EXPECT_EQ(format, exporter::Format::kSpeedscope);
  EXPECT_FALSE(exporter::parse_format("svg", &format));
}

}  // namespace
