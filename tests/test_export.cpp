// Interactive trace export: clock correlation math, the span-export
// core's nesting policy, Perfetto / speedscope document structure, both
// formats' bytes pinned for two fixtures, and the export path's bytes
// against the reference oracle's ordering (single file) and the 4-rank
// fan-in.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
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

/// A single-node trace exercising every replay branch: a force-closed
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

/// A RUNSTATS trailer declaring dropped events and missed sampler
/// ticks, which Perfetto marks as global instants.
void add_run_stats(Trace* t, std::uint64_t dropped, std::uint64_t missed) {
  t->run_stats.present = true;
  t->run_stats.events_recorded = t->fn_events.size();
  t->run_stats.events_dropped = dropped;
  t->run_stats.tempd_missed_ticks = missed;
}

/// A document pinned under tests/golden.
std::string golden(const std::string& name) {
  std::ifstream in(std::string(TEMPEST_EXPORT_GOLDEN_DIR) + "/" + name,
                   std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

/// Export `paths` through run_export in both formats and compare each
/// document with `<name>.perfetto.json` / `<name>.speedscope.json`.
void expect_golden_documents(const std::string& name,
                             const std::vector<std::string>& paths,
                             const exporter::DiffAnnotation& annotation) {
  for (const exporter::Format format :
       {exporter::Format::kPerfetto, exporter::Format::kSpeedscope}) {
    const bool perfetto = format == exporter::Format::kPerfetto;
    exporter::ExportRunOptions options;
    options.format = format;
    options.spool_prefix = temp_path(name + "_spool");
    if (perfetto) options.annotations = {annotation};
    std::ostringstream out;
    auto ran = exporter::run_export(paths, out, options);
    ASSERT_TRUE(ran.is_ok()) << ran.message();
    const std::string file =
        name + (perfetto ? ".perfetto.json" : ".speedscope.json");
    EXPECT_EQ(out.str(), golden(file)) << file;
  }
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

TEST(SpanExport, DropsOrphansAndForceClosesInnerFrames) {
  Trace t;
  t.tsc_ticks_per_second = 1e6;  // 1 tick = 1 us
  t.nodes = {{0, "host"}};
  t.threads = {{0, 0, 0}};
  t.fn_events = {
      {10, 0x1000, 0, 0, FnEventKind::kExit},  // nothing open: dropped
      {20, 0x1000, 0, 0, FnEventKind::kEnter},
      {30, 0x2000, 0, 0, FnEventKind::kEnter},
      {40, 0x3000, 0, 0, FnEventKind::kEnter},
      {50, 0x1000, 0, 0, FnEventKind::kExit},  // closes 0x3000, 0x2000 first
      {60, 0x2000, 0, 0, FnEventKind::kExit},  // now orphaned: dropped
  };
  pipeline::MemoryTraceSource source(t);
  std::ostringstream out;
  exporter::PerfettoExporter sink(
      out, exporter::ClockCorrelator(t.tsc_ticks_per_second, {}));
  ASSERT_TRUE(pipeline::run_pipeline(&source, {}, {&sink}));

  // Innermost first, at the matching exit's time (the base is the first
  // event's, dropped or not).
  std::vector<std::string> closes;
  std::istringstream lines(out.str());
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"ph\":\"E\"") != std::string::npos) closes.push_back(line);
  }
  ASSERT_EQ(closes.size(), 3u);
  const std::string at = "\"ts\":40.000,\"cat\":\"fn\",\"name\":";
  EXPECT_NE(closes[0].find(at + "\"0x3000\""), std::string::npos);
  EXPECT_NE(closes[1].find(at + "\"0x2000\""), std::string::npos);
  EXPECT_NE(closes[2].find(at + "\"0x1000\""), std::string::npos);
  EXPECT_EQ(sink.stats().spans_dropped, 2u);
  EXPECT_EQ(sink.stats().spans_force_closed, 2u);
}

TEST(SpanExport, WriteFailuresEndTheRunNamingTheFormat) {
  const Trace t = unbalanced_trace();
  {
    pipeline::MemoryTraceSource source(t);
    std::ostringstream out;
    out.setstate(std::ios::badbit);
    exporter::PerfettoExporter sink(
        out, exporter::ClockCorrelator(t.tsc_ticks_per_second, {}));
    const Status ran = pipeline::run_pipeline(&source, {}, {&sink});
    EXPECT_EQ(ran.message(), "perfetto export: write failed");
  }
  {
    pipeline::MemoryTraceSource source(t);
    std::ostringstream out;
    const std::string prefix = temp_path("no_such_dir/ss");
    exporter::SpeedscopeExporter sink(
        out, exporter::ClockCorrelator(t.tsc_ticks_per_second, {}), prefix);
    const Status ran = pipeline::run_pipeline(&source, {}, {&sink});
    EXPECT_EQ(ran.message(),
              "speedscope export: spool write failed: " + prefix + ".t0_0.spool");
    EXPECT_TRUE(out.str().empty());
  }
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

// Each spool is unlinked as soon as it is opened, so an export killed at
// any point leaves no scratch file beside its output.
TEST(SpeedscopeExporter, SpoolsLeaveNoFileBehind) {
  const Trace t = unbalanced_trace();
  const std::filesystem::path dir = temp_path("ss_unlinked");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::ostringstream out;
  exporter::SpeedscopeExporter sink(
      out, exporter::ClockCorrelator(t.tsc_ticks_per_second, {}),
      (dir / "out").string());
  ASSERT_TRUE(sink.begin(t));
  pipeline::EventBatch batch;
  batch.fn_events = t.fn_events;
  ASSERT_TRUE(sink.on_batch(t, batch));
  EXPECT_TRUE(std::filesystem::is_empty(dir));

  // on_end reads the events back through the open stream.
  ASSERT_TRUE(sink.on_end(t));
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  EXPECT_EQ(count_occurrences(out.str(), "\"type\":\"O\""), 3u);
  EXPECT_EQ(count_occurrences(out.str(), "\"type\":\"C\""), 3u);
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

// The complete documents, pinned byte for byte: every record kind
// (M, B, E, C, the annotation and RUNSTATS instants; O/C spools and the
// frame table) and both metadata trailers.
TEST(ExportGolden, UnbalancedTraceDocuments) {
  Trace t = unbalanced_trace();
  add_run_stats(&t, 7, 3);
  const std::string path = temp_path("golden_unbalanced.trace");
  ASSERT_TRUE(write_trace_file(path, t));
  expect_golden_documents("export_unbalanced", {path},
                          {"my region", 0.25, 0.99, true});
}

TEST(ExportGolden, FourRankFanInDocuments) {
  std::vector<std::string> paths;
  for (std::uint16_t r = 0; r < 4; ++r) {
    Trace t = rank_trace(r, 40 * r);
    t.sort_by_time();
    add_run_stats(&t, r + 1, 2 * r);
    paths.push_back(temp_path("golden_rank" + std::to_string(r) + ".trace"));
    ASSERT_TRUE(write_trace_file(paths[r], t));
  }
  expect_golden_documents("export_fanin", paths,
                          {"0x2002", -0.125, 0.95, false});
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
