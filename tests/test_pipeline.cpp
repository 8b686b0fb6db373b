// Streaming pipeline: source/stage/sink plumbing, bounded batches,
// multi-rank fan-in, and byte-identical equivalence with the batch
// path. The multi-rank golden test is the paper's parallel-hot-spot
// workflow: four per-rank traces, one streaming pass, output pinned
// against the batch parser run over the concatenated, aligned trace.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "parser/parse.hpp"
#include "pipeline/analysis.hpp"
#include "pipeline/rank_fanin.hpp"
#include "pipeline/sinks.hpp"
#include "pipeline/source.hpp"
#include "pipeline/stages.hpp"
#include "reference/reference.hpp"
#include "report/json.hpp"
#include "report/series.hpp"
#include "report/stdout_format.hpp"
#include "trace/align.hpp"
#include "trace/reader.hpp"
#include "trace/trace.hpp"
#include "trace/writer.hpp"

namespace {

using namespace tempest;
using namespace tempest::trace;
namespace pipeline = tempest::pipeline;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// One rank's trace: its own node, two threads, one sensor, and clock
/// syncs mapping the rank-local clock onto the global one. Timestamps
/// are strictly distinct across ranks (base offsets) so the k-way merge
/// has no cross-rank enter/exit ties to disambiguate.
Trace rank_trace(std::uint16_t rank, std::uint64_t skew) {
  Trace t;
  t.tsc_ticks_per_second = 1e9;
  t.executable = "mpi_app";
  t.nodes = {{rank, "rank" + std::to_string(rank)}};
  t.sensors = {{rank, 0, "cpu", 1.0}};
  const std::uint32_t t0 = rank * 2u, t1 = rank * 2u + 1u;
  t.threads = {{t0, rank, 0}, {t1, rank, 1}};

  // Rank-local clocks run `skew` ticks behind the global clock; syncs
  // at both ends pin the linear fit exactly.
  const std::uint64_t base = 1000 + rank * 13;  // global-time base
  const auto local = [&](std::uint64_t global) { return global - skew; };
  const std::uint64_t kFnMain = 0x1000, kFnWork = 0x2000 + rank;

  const auto push = [&](std::uint32_t tid, std::uint64_t global_tsc,
                        std::uint64_t addr, FnEventKind kind) {
    t.fn_events.push_back({local(global_tsc), addr, tid, rank, kind});
  };
  push(t0, base + 0, kFnMain, FnEventKind::kEnter);
  push(t0, base + 100, kFnWork, FnEventKind::kEnter);
  push(t0, base + 700, kFnWork, FnEventKind::kExit);
  push(t0, base + 900, kFnMain, FnEventKind::kExit);
  push(t1, base + 50, kFnWork, FnEventKind::kEnter);
  push(t1, base + 650, kFnWork, FnEventKind::kExit);

  for (std::uint64_t g = base + 40; g < base + 900; g += 200) {
    t.temp_samples.push_back({local(g), 40.0 + rank + (g % 7) * 0.5, rank, 0});
  }
  t.clock_syncs = {{local(base), base, rank},
                   {local(base + 1000), base + 1000, rank}};
  return t;
}

/// The batch-path reference for a multi-rank run: concatenate the
/// per-rank traces in path order (metadata via TraceHeader::append,
/// record vectors appended) — what `cat`-style merging would produce.
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

/// A single-rank trace with no clock syncs, written time-sorted — the
/// shape a recorded single-node session produces.
Trace sorted_single_trace() {
  Trace t = rank_trace(0, 0);
  t.clock_syncs.clear();
  t.sort_by_time();
  return t;
}

TEST(ChunkedTraceSource, StreamsWholeTraceInBoundedBatches) {
  const Trace t = sorted_single_trace();
  const std::string path = temp_path("chunked.trace");
  ASSERT_TRUE(write_trace_file(path, t));

  pipeline::BatchOptions options;
  options.batch_records = 2;  // force several batches per section
  auto opened = pipeline::ChunkedTraceSource::open(path, options);
  ASSERT_TRUE(opened.is_ok()) << opened.message();
  auto source = std::move(opened).value();

  pipeline::CountingSink counter;
  const Status ran = pipeline::run_pipeline(&source, {}, {&counter});
  ASSERT_TRUE(ran) << ran.message();
  EXPECT_EQ(counter.fn_events(), t.fn_events.size());
  EXPECT_EQ(counter.temp_samples(), t.temp_samples.size());
  EXPECT_EQ(counter.clock_syncs(), 0u);
  EXPECT_GE(counter.batches(),
            (t.fn_events.size() + 1) / 2 + (t.temp_samples.size() + 1) / 2);
}

TEST(ChunkedTraceSource, OpenRejectsMissingFile) {
  auto opened = pipeline::ChunkedTraceSource::open(temp_path("nope.trace"));
  ASSERT_FALSE(opened.is_ok());
  EXPECT_NE(opened.message().find("cannot open"), std::string::npos);
}

TEST(ChunkedTraceSource, TruncatedSectionSurfacesActionableError) {
  const Trace t = sorted_single_trace();
  const std::string full = temp_path("full.trace");
  ASSERT_TRUE(write_trace_file(full, t));
  std::ifstream in(full, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string bytes = buf.str();
  const std::string cut = temp_path("cut.trace");
  std::ofstream out(cut, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 10));
  out.close();

  auto opened = pipeline::ChunkedTraceSource::open(cut);
  ASSERT_TRUE(opened.is_ok()) << opened.message();
  auto source = std::move(opened).value();
  pipeline::CountingSink counter;
  const Status ran = pipeline::run_pipeline(&source, {}, {&counter});
  ASSERT_FALSE(ran);
  EXPECT_NE(ran.message().find("truncated"), std::string::npos) << ran.message();
  EXPECT_NE(ran.message().find(cut), std::string::npos) << ran.message();
}

TEST(ChunkedTraceSource, TrailingBytesRejected) {
  const Trace t = sorted_single_trace();
  const std::string path = temp_path("trailing.trace");
  ASSERT_TRUE(write_trace_file(path, t));
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << "junk";
  out.close();

  auto opened = pipeline::ChunkedTraceSource::open(path);
  ASSERT_TRUE(opened.is_ok()) << opened.message();
  auto source = std::move(opened).value();
  pipeline::CountingSink counter;
  const Status ran = pipeline::run_pipeline(&source, {}, {&counter});
  ASSERT_FALSE(ran);
  EXPECT_NE(ran.message().find("trailing"), std::string::npos) << ran.message();
}

TEST(OrderCheckStage, RejectsOutOfOrderStream) {
  Trace t = sorted_single_trace();
  std::swap(t.fn_events.front(), t.fn_events.back());  // break the order
  const std::string path = temp_path("unsorted.trace");
  ASSERT_TRUE(write_trace_file(path, t));

  auto opened = pipeline::ChunkedTraceSource::open(path);
  ASSERT_TRUE(opened.is_ok()) << opened.message();
  auto source = std::move(opened).value();
  pipeline::OrderCheckStage order;
  pipeline::CountingSink counter;
  const Status ran = pipeline::run_pipeline(&source, {&order}, {&counter});
  ASSERT_FALSE(ran);
  EXPECT_NE(ran.message().find("time order"), std::string::npos) << ran.message();
}

TEST(MemoryTraceSource, MatchesChunkedSource) {
  const Trace t = sorted_single_trace();
  const std::string path = temp_path("memvsfile.trace");
  ASSERT_TRUE(write_trace_file(path, t));

  pipeline::BatchOptions options;
  options.batch_records = 3;
  pipeline::MemoryTraceSource mem(t, options);
  pipeline::CountingSink mem_counter;
  ASSERT_TRUE(pipeline::run_pipeline(&mem, {}, {&mem_counter}));

  auto opened = pipeline::ChunkedTraceSource::open(path, options);
  ASSERT_TRUE(opened.is_ok());
  auto file_source = std::move(opened).value();
  pipeline::CountingSink file_counter;
  ASSERT_TRUE(pipeline::run_pipeline(&file_source, {}, {&file_counter}));

  EXPECT_EQ(mem_counter.fn_events(), file_counter.fn_events());
  EXPECT_EQ(mem_counter.temp_samples(), file_counter.temp_samples());
}

/// Render a profile + series exactly as tempest_parse does, for byte
/// comparison between the batch and streaming paths.
struct Rendered {
  std::string text, json, csv;
};

Rendered render(const parser::RunProfile& profile,
                const report::ThermalSeries& series) {
  Rendered r;
  std::ostringstream text, json, csv;
  report::print_profile(text, profile, {});
  r.text = text.str();
  report::write_profile_json(json, profile);
  json << "\n";
  r.json = json.str();
  report::write_series_csv(csv, series);
  r.csv = csv.str();
  return r;
}

Rendered render_streaming(pipeline::Source* source,
                          const std::vector<pipeline::Stage*>& stages) {
  pipeline::AnalysisOptions options;
  options.want_series = true;
  pipeline::AnalysisSink sink(options);
  const Status ran = pipeline::run_pipeline(source, stages, {&sink});
  EXPECT_TRUE(ran) << ran.message();
  return render(sink.result().profile, sink.result().series);
}

TEST(StreamingEquivalence, SingleFileMatchesBatchPath) {
  const Trace t = sorted_single_trace();
  const std::string path = temp_path("equiv.trace");
  ASSERT_TRUE(write_trace_file(path, t));

  // Batch: the tool's load + parse + extract_series path.
  auto loaded = read_trace_file(path);
  ASSERT_TRUE(loaded.is_ok());
  Trace batch_trace = std::move(loaded).value();
  const Status aligned = align_clocks(&batch_trace);
  ASSERT_TRUE(aligned) << aligned.message();
  auto parsed = parser::parse_trace(batch_trace);
  ASSERT_TRUE(parsed.is_ok()) << parsed.message();
  const Rendered batch = render(
      parsed.value(),
      report::extract_series(batch_trace, TempUnit::kFahrenheit));

  // Streaming: chunked source (tiny batches) + align + order check.
  pipeline::BatchOptions options;
  options.batch_records = 2;
  auto opened = pipeline::ChunkedTraceSource::open(path, options);
  ASSERT_TRUE(opened.is_ok()) << opened.message();
  auto source = std::move(opened).value();
  auto fits = source.clock_fits();
  ASSERT_TRUE(fits.is_ok()) << fits.message();
  pipeline::ClockAlignStage align_stage(std::move(fits).value());
  pipeline::OrderCheckStage order;
  const Rendered streaming = render_streaming(&source, {&align_stage, &order});

  EXPECT_EQ(streaming.text, batch.text);
  EXPECT_EQ(streaming.json, batch.json);
  EXPECT_EQ(streaming.csv, batch.csv);
}

TEST(StreamingEquivalence, RunStatsReachBothPathsIdentically) {
  // A trace carrying a RUNSTATS trailer must surface the same numbers
  // whether it is materialised in one read or streamed in tiny batches
  // — the report footer and JSON "run_stats" object are derived from
  // them, so any divergence is user-visible.
  Trace t = sorted_single_trace();
  t.run_stats.events_recorded = t.fn_events.size();
  t.run_stats.tempd_samples = t.temp_samples.size();
  t.run_stats.tempd_ticks = t.temp_samples.size();
  t.run_stats.threads_registered = 2;
  t.run_stats.wall_seconds = 1.5;
  t.run_stats.tempd_cpu_seconds = 0.004;
  t.run_stats.probe_cost_ns_mean = 37.0;
  t.run_stats.present = true;
  const std::string path = temp_path("runstats_equiv.trace");
  ASSERT_TRUE(write_trace_file(path, t));

  auto loaded = read_trace_file(path);
  ASSERT_TRUE(loaded.is_ok());
  const trace::RunStats& batch_rs = loaded.value().run_stats;
  ASSERT_TRUE(batch_rs.present);

  pipeline::BatchOptions options;
  options.batch_records = 2;  // many batches: meta refresh must still work
  auto opened = pipeline::ChunkedTraceSource::open(path, options);
  ASSERT_TRUE(opened.is_ok()) << opened.message();
  auto source = std::move(opened).value();
  pipeline::AnalysisSink sink(pipeline::AnalysisOptions{});
  const Status ran = pipeline::run_pipeline(&source, {}, {&sink});
  ASSERT_TRUE(ran) << ran.message();
  const trace::RunStats& stream_rs = sink.result().run_stats;
  ASSERT_TRUE(stream_rs.present);

  EXPECT_EQ(stream_rs.events_recorded, batch_rs.events_recorded);
  EXPECT_EQ(stream_rs.tempd_samples, batch_rs.tempd_samples);
  EXPECT_EQ(stream_rs.tempd_ticks, batch_rs.tempd_ticks);
  EXPECT_EQ(stream_rs.threads_registered, batch_rs.threads_registered);
  EXPECT_EQ(stream_rs.wall_seconds, batch_rs.wall_seconds);
  EXPECT_EQ(stream_rs.tempd_cpu_seconds, batch_rs.tempd_cpu_seconds);
  EXPECT_EQ(stream_rs.probe_cost_ns_mean, batch_rs.probe_cost_ns_mean);

  // And the JSON they feed is byte-identical.
  std::ostringstream batch_json, stream_json;
  report::write_profile_json(batch_json, parser::RunProfile{}, &batch_rs);
  report::write_profile_json(stream_json, parser::RunProfile{}, &stream_rs);
  EXPECT_EQ(stream_json.str(), batch_json.str());
}

TEST(StreamingEquivalence, FourRankFanInMatchesConcatenatedBatch) {
  // Four ranks, each with its own clock skew; globally unique node,
  // thread, and sensor ids, as the fan-in contract requires.
  std::vector<Trace> ranks;
  std::vector<std::string> paths;
  for (std::uint16_t r = 0; r < 4; ++r) {
    ranks.push_back(rank_trace(r, 40 + 17ull * r));
    ranks.back().sort_by_time();
    paths.push_back(temp_path("rank" + std::to_string(r) + ".trace"));
    ASSERT_TRUE(write_trace_file(paths.back(), ranks.back()));
  }

  // Batch reference: concatenate, align (fits from the concatenated
  // sync stream), sort, parse — the workflow the fan-in replaces.
  Trace combined = concatenated(ranks);
  const Status aligned = align_clocks(&combined);
  ASSERT_TRUE(aligned) << aligned.message();
  auto parsed = parser::parse_trace(combined);
  ASSERT_TRUE(parsed.is_ok()) << parsed.message();
  const Rendered batch = render(
      parsed.value(),
      report::extract_series(combined, TempUnit::kFahrenheit));

  // Streaming: one pass over the four files.
  pipeline::BatchOptions options;
  options.batch_records = 3;  // force refills mid-merge
  auto opened = pipeline::RankFanIn::open(paths, options);
  ASSERT_TRUE(opened.is_ok()) << opened.message();
  auto fan = std::move(opened).value();
  pipeline::OrderCheckStage order;
  const Rendered streaming = render_streaming(&fan, {&order});

  EXPECT_EQ(streaming.text, batch.text);
  EXPECT_EQ(streaming.json, batch.json);
  EXPECT_EQ(streaming.csv, batch.csv);
}

TEST(RankFanIn, CombinedMetadataKeepsPathOrder) {
  std::vector<std::string> paths;
  for (std::uint16_t r = 0; r < 3; ++r) {
    Trace t = rank_trace(r, 0);
    t.sort_by_time();
    paths.push_back(temp_path("meta_rank" + std::to_string(r) + ".trace"));
    ASSERT_TRUE(write_trace_file(paths[r], t));
  }
  auto opened = pipeline::RankFanIn::open(paths);
  ASSERT_TRUE(opened.is_ok()) << opened.message();
  const auto& meta = opened.value().meta();
  ASSERT_EQ(meta.nodes.size(), 3u);
  EXPECT_EQ(meta.nodes[0].hostname, "rank0");
  EXPECT_EQ(meta.nodes[2].hostname, "rank2");
  EXPECT_EQ(meta.threads.size(), 6u);
  EXPECT_EQ(meta.sensors.size(), 3u);
  EXPECT_DOUBLE_EQ(meta.tsc_ticks_per_second, 1e9);
  EXPECT_EQ(meta.executable, "mpi_app");
}

TEST(RankFanIn, RejectsEmptyPathListAndMissingFile) {
  auto none = pipeline::RankFanIn::open({});
  ASSERT_FALSE(none.is_ok());
  auto missing = pipeline::RankFanIn::open({temp_path("absent.trace")});
  ASSERT_FALSE(missing.is_ok());
  EXPECT_NE(missing.message().find("cannot open"), std::string::npos);
}

TEST(RankFanIn, ToleratesZeroEventRank) {
  // A rank that registered but recorded nothing (e.g. it spent the run
  // in MPI_Recv outside any instrumented function) must not stall or
  // corrupt the merge — its metadata still joins the combined header.
  Trace active = rank_trace(0, 0);
  active.sort_by_time();
  Trace idle = rank_trace(1, 0);
  idle.fn_events.clear();
  idle.temp_samples.clear();
  idle.sort_by_time();

  std::vector<std::string> paths = {temp_path("zero_rank0.trace"),
                                    temp_path("zero_rank1.trace")};
  ASSERT_TRUE(write_trace_file(paths[0], active));
  ASSERT_TRUE(write_trace_file(paths[1], idle));

  auto opened = pipeline::RankFanIn::open(paths);
  ASSERT_TRUE(opened.is_ok()) << opened.message();
  auto fan = std::move(opened).value();
  ASSERT_EQ(fan.meta().nodes.size(), 2u);

  pipeline::OrderCheckStage order;
  pipeline::CountingSink counter;
  const Status ran = pipeline::run_pipeline(&fan, {&order}, {&counter});
  ASSERT_TRUE(ran) << ran.message();
  EXPECT_EQ(counter.fn_events(), active.fn_events.size());
  EXPECT_EQ(counter.temp_samples(), active.temp_samples.size());
}

TEST(RankFanIn, MergesFullyDisjointTscRanges) {
  // Ranks whose aligned time ranges don't overlap at all (one finished
  // before the other started): the merge must drain them sequentially,
  // still in global order, with no events lost at the boundary.
  Trace early = rank_trace(0, 0);
  early.sort_by_time();
  Trace late = rank_trace(1, 0);
  const std::uint64_t shift = 1'000'000;  // far past rank 0's last tick
  for (auto& e : late.fn_events) e.tsc += shift;
  for (auto& s : late.temp_samples) s.tsc += shift;
  for (auto& c : late.clock_syncs) {
    c.node_tsc += shift;
    c.global_tsc += shift;
  }
  late.sort_by_time();

  std::vector<std::string> paths = {temp_path("disjoint_rank0.trace"),
                                    temp_path("disjoint_rank1.trace")};
  ASSERT_TRUE(write_trace_file(paths[0], early));
  ASSERT_TRUE(write_trace_file(paths[1], late));

  pipeline::BatchOptions options;
  options.batch_records = 2;  // several refills inside each rank's range
  auto opened = pipeline::RankFanIn::open(paths, options);
  ASSERT_TRUE(opened.is_ok()) << opened.message();
  auto fan = std::move(opened).value();

  pipeline::OrderCheckStage order;  // fails on any cross-rank inversion
  pipeline::CountingSink counter;
  const Status ran = pipeline::run_pipeline(&fan, {&order}, {&counter});
  ASSERT_TRUE(ran) << ran.message();
  EXPECT_EQ(counter.fn_events(),
            early.fn_events.size() + late.fn_events.size());
  EXPECT_EQ(counter.temp_samples(),
            early.temp_samples.size() + late.temp_samples.size());
}

/// Records equal field by field (the structs define no operator==).
void expect_same_records(const std::vector<FnEvent>& got,
                         const std::vector<FnEvent>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].tsc, want[i].tsc) << "event " << i;
    EXPECT_EQ(got[i].addr, want[i].addr) << "event " << i;
    EXPECT_EQ(got[i].thread_id, want[i].thread_id) << "event " << i;
    EXPECT_EQ(got[i].node_id, want[i].node_id) << "event " << i;
  }
}

void expect_same_records(const std::vector<TempSample>& got,
                         const std::vector<TempSample>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].tsc, want[i].tsc) << "sample " << i;
    EXPECT_EQ(got[i].node_id, want[i].node_id) << "sample " << i;
    EXPECT_EQ(got[i].temp_c, want[i].temp_c) << "sample " << i;
  }
}

TEST(ClockMap, MatchesFitClocksOverSparseNodeIds) {
  // Random fit sets over sparse node ids, with records on fitted and
  // unfitted nodes at tsc values near 0 (where the fit goes negative
  // and clamps) and near 2^63: the dense table, the streaming stage and
  // the batch aligner must all agree with each fit_clocks entry's
  // to_global and with the map-based oracle, and leave records on
  // nodes without a fit untouched.
  const std::vector<std::uint16_t> fitted_ids = {0, 1, 37, 4095, 65535};
  const std::vector<std::uint16_t> record_ids = {0, 1, 2, 37, 38, 4095, 9000, 65535};
  constexpr std::uint64_t kHigh = std::uint64_t{1} << 63;
  std::mt19937_64 rng(20071);
  std::size_t clamped = 0;  // fitted records that clamp to global 0
  const auto uniform = [&rng](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  for (int set = 0; set < 1000; ++set) {
    SCOPED_TRACE("fit set " + std::to_string(set));
    std::vector<ClockSync> syncs;
    for (const std::uint16_t node : fitted_ids) {
      if (rng() % 3 == 0) continue;  // this node gets no fit
      const double drift = uniform(-1e-4, 1e-4);
      const double offset = uniform(-5e5, 5e5);
      const std::size_t n = 1 + rng() % 4;
      const bool degenerate = rng() % 8 == 0;  // every sync at one node tsc
      // Syncs at least 1e8 ticks apart keep the fitted rate within 1e-6
      // of 1 + drift, so every value near 2^63 stays below 2^64.
      std::uint64_t node_tsc = 1'000'000;
      for (std::size_t i = 0; i < n; ++i) {
        if (!degenerate && i > 0) node_tsc += 100'000'000 + rng() % 100'000'000;
        const double global = static_cast<double>(node_tsc) * (1.0 + drift) + offset +
                              uniform(-50.0, 50.0);
        syncs.push_back({node_tsc, static_cast<std::uint64_t>(global), node});
      }
    }
    const std::map<std::uint16_t, ClockFit> fits = fit_clocks(syncs);
    const ClockMap clocks(fits);
    EXPECT_EQ(clocks.empty(), fits.empty());

    Trace t;
    t.clock_syncs = syncs;
    for (int i = 0; i < 64; ++i) {
      const std::uint16_t node = record_ids[rng() % record_ids.size()];
      const std::uint64_t tsc =
          rng() % 2 == 0 ? rng() % 4'000'000 : kHigh - 2'000'000 + rng() % 4'000'000;
      t.fn_events.push_back({tsc, 0x1000u + static_cast<std::uint64_t>(i),
                             static_cast<std::uint32_t>(i), node, FnEventKind::kEnter});
      t.temp_samples.push_back({tsc, static_cast<double>(i), node, 0});
    }

    for (const FnEvent& e : t.fn_events) {
      const auto it = fits.find(e.node_id);
      EXPECT_EQ(clocks.find(e.node_id) != nullptr, it != fits.end());
      const std::uint64_t want = it != fits.end() ? it->second.to_global(e.tsc) : e.tsc;
      EXPECT_EQ(clocks.to_global(e.node_id, e.tsc), want)
          << "node " << e.node_id << " tsc " << e.tsc;
      if (it != fits.end() && want == 0) ++clamped;
    }

    // The map-based oracle, record by record and as a sorted trace.
    std::vector<FnEvent> want_events = t.fn_events;
    std::vector<TempSample> want_samples = t.temp_samples;
    parser::reference::align_records_seed(fits, &want_events, &want_samples);

    pipeline::EventBatch batch;
    batch.fn_events = t.fn_events;
    batch.temp_samples = t.temp_samples;
    batch.clock_syncs = syncs;
    pipeline::ClockAlignStage stage(fits);
    ASSERT_TRUE(stage.process(pipeline::TraceMeta{}, &batch));
    expect_same_records(batch.fn_events, want_events);
    expect_same_records(batch.temp_samples, want_samples);
    EXPECT_TRUE(batch.clock_syncs.empty());  // consumed whenever present

    Trace oracle = t;
    parser::reference::align_clocks_seed(&oracle);
    ASSERT_TRUE(align_clocks(&t));
    expect_same_records(t.fn_events, oracle.fn_events);
    expect_same_records(t.temp_samples, oracle.temp_samples);
    EXPECT_TRUE(t.clock_syncs.empty());
  }
  EXPECT_GT(clamped, 0u);  // the <= 0 clamp was exercised
}

/// One rank of a drifted run on node `node`: two threads running nested
/// calls in rank-local time, samples between them, and noisy syncs
/// against a clock `drift` fast and `offset` ahead of the global one.
Trace drifted_rank_trace(std::uint16_t node, std::uint32_t first_tid, double drift,
                         double offset, std::mt19937_64* rng) {
  Trace t;
  t.tsc_ticks_per_second = 1e9;
  t.executable = "mpi_app";
  t.nodes = {{node, "rank" + std::to_string(node)}};
  t.sensors = {{node, 0, "cpu", 1.0}};
  t.threads = {{first_tid, node, 0}, {first_tid + 1, node, 1}};
  const auto local = [&](std::uint64_t global) {
    return static_cast<std::uint64_t>(static_cast<double>(global) * (1.0 + drift) + offset);
  };
  for (std::uint32_t tid = first_tid; tid < first_tid + 2; ++tid) {
    std::uint64_t g = 10'000 + (*rng)() % 100;
    for (int call = 0; call < 200; ++call) {
      const std::uint64_t outer = 0x1000 + (*rng)() % 8 * 0x40;
      const std::uint64_t inner = 0x2000 + (*rng)() % 8 * 0x40;
      t.fn_events.push_back({local(g), outer, tid, node, FnEventKind::kEnter});
      g += 1 + (*rng)() % 500;
      t.fn_events.push_back({local(g), inner, tid, node, FnEventKind::kEnter});
      g += 1 + (*rng)() % 500;
      t.fn_events.push_back({local(g), inner, tid, node, FnEventKind::kExit});
      g += 1 + (*rng)() % 500;
      t.fn_events.push_back({local(g), outer, tid, node, FnEventKind::kExit});
      g += 1 + (*rng)() % 50;
    }
  }
  for (std::uint64_t g = 10'000; g < 300'000; g += 997) {
    t.temp_samples.push_back({local(g), 40.0 + static_cast<double>(g % 13), node, 0});
  }
  for (std::uint64_t g = 5'000; g < 400'000; g += 50'000) {
    const double noise = static_cast<double>((*rng)() % 41) - 20.0;
    t.clock_syncs.push_back(
        {local(g), static_cast<std::uint64_t>(static_cast<double>(g) + noise), node});
  }
  t.sort_by_time();
  return t;
}

TEST(ClockMap, ThreeRankDriftedTraceMatchesMapOracle) {
  // align_clocks, ClockAlignStage and RankFanIn over one drifted
  // three-rank run (sparse node ids, noisy syncs) against the map-based
  // oracle: the same aligned timestamps, and for the two sorting paths
  // the same stable global order.
  std::mt19937_64 rng(15);
  const std::vector<Trace> ranks = {
      drifted_rank_trace(1, 0, 2e-5, 3'000.0, &rng),
      drifted_rank_trace(37, 2, -3e-5, 11'000.0, &rng),
      drifted_rank_trace(4095, 4, 7e-5, 500.0, &rng)};
  std::vector<std::string> paths;
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    paths.push_back(temp_path("drift_rank" + std::to_string(r) + ".trace"));
    ASSERT_TRUE(write_trace_file(paths.back(), ranks[r]));
  }
  const Trace combined = concatenated(ranks);
  Trace oracle = combined;
  parser::reference::align_clocks_seed(&oracle);

  Trace batch_path = combined;
  ASSERT_TRUE(align_clocks(&batch_path));
  expect_same_records(batch_path.fn_events, oracle.fn_events);
  expect_same_records(batch_path.temp_samples, oracle.temp_samples);

  const auto fits = fit_clocks(combined.clock_syncs);
  std::vector<FnEvent> want_events = combined.fn_events;
  std::vector<TempSample> want_samples = combined.temp_samples;
  parser::reference::align_records_seed(fits, &want_events, &want_samples);
  pipeline::EventBatch batch;
  batch.fn_events = combined.fn_events;
  batch.temp_samples = combined.temp_samples;
  pipeline::ClockAlignStage stage(fits);
  ASSERT_TRUE(stage.process(pipeline::TraceMeta{}, &batch));
  expect_same_records(batch.fn_events, want_events);
  expect_same_records(batch.temp_samples, want_samples);

  pipeline::BatchOptions options;
  options.batch_records = 37;  // refills mid-merge
  auto opened = pipeline::RankFanIn::open(paths, options);
  ASSERT_TRUE(opened.is_ok()) << opened.message();
  auto fan = std::move(opened).value();
  std::vector<FnEvent> fan_events;
  std::vector<TempSample> fan_samples;
  for (bool done = false; !done;) {
    batch.clear();
    ASSERT_TRUE(fan.next(&batch, &done));
    fan_events.insert(fan_events.end(), batch.fn_events.begin(), batch.fn_events.end());
    fan_samples.insert(fan_samples.end(), batch.temp_samples.begin(),
                       batch.temp_samples.end());
  }
  expect_same_records(fan_events, oracle.fn_events);
  expect_same_records(fan_samples, oracle.temp_samples);
}

TEST(LintSink, MatchesBatchLintReport) {
  // A clean trace, and one whose events and samples both reference an
  // undeclared node — more findings of that one check than the cap
  // keeps. The source feeds samples first, lint_trace events first; the
  // reports must not differ in which findings survive or their order.
  Trace clean = rank_trace(0, 0);
  clean.sort_by_time();
  Trace dangling = clean;
  for (std::size_t i = 0; i < 3; ++i) {
    dangling.fn_events[i].node_id = 9;
    dangling.temp_samples[i].node_id = 9;
  }
  for (const Trace& t : {clean, dangling}) {
    analysis::LintOptions options;
    options.expected_hz = 0.0;
    options.max_findings_per_check = 4;
    const analysis::LintReport batch = analysis::lint_trace(t, options);

    pipeline::BatchOptions batch_options;
    batch_options.batch_records = 2;
    pipeline::MemoryTraceSource source(t, batch_options);
    pipeline::LintSink sink(options);
    const Status ran = pipeline::run_pipeline(&source, {}, {&sink});
    ASSERT_TRUE(ran) << ran.message();

    EXPECT_EQ(analysis::to_json(sink.report()), analysis::to_json(batch));
  }
  const analysis::LintReport dangling_report = [&] {
    analysis::LintOptions options;
    options.max_findings_per_check = 4;
    return analysis::lint_trace(dangling, options);
  }();
  std::size_t event_refs = 0, sample_refs = 0, suppressed = 0;
  for (const analysis::Finding& f : dangling_report.findings) {
    if (f.check != "node-unresolved") continue;
    if (f.message.rfind("fn event", 0) == 0) ++event_refs;
    if (f.message.rfind("temp sample", 0) == 0) ++sample_refs;
    if (f.message.rfind("(further", 0) == 0) ++suppressed;
  }
  // Events come first in the canonical order: all 3 of theirs, then 1
  // of the samples', then the suppression line.
  EXPECT_EQ(event_refs, 3u);
  EXPECT_EQ(sample_refs, 1u);
  EXPECT_EQ(suppressed, 1u);
}

TEST(AnalysisPipeline, EmptyRunProducesEmptyProfile) {
  pipeline::AnalysisPipeline fold;
  const pipeline::AnalysisResult result = fold.finish();
  EXPECT_TRUE(result.profile.nodes.empty());
  EXPECT_DOUBLE_EQ(result.profile.duration_s, 0.0);
  EXPECT_FALSE(result.has_series);
}

}  // namespace
