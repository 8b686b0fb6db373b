// Streaming pipeline: source/stage/sink plumbing, bounded batches,
// multi-rank fan-in, cross-node ordering against the seed oracle, and
// byte-identical equivalence of the file, in-memory and fan-in sources.
// The multi-rank golden test is the paper's parallel-hot-spot workflow:
// four per-rank traces, one streaming pass, output pinned against the
// in-memory parser run over the concatenated raw trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
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
#include "telemetry/metrics.hpp"
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

/// The in-memory reference for a multi-rank run: concatenate the
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

/// The reference order: the seed aligner's rewrite and stable sort. A
/// trace without syncs is one clock domain, stable-sorted as recorded.
Trace oracle_of(Trace t) {
  parser::reference::align_clocks_seed(&t);
  parser::reference::sort_by_time_seed(&t);
  return t;
}

/// Every record a run delivers, in order.
class CollectingSink : public pipeline::BatchSink {
 public:
  Status on_batch(const pipeline::TraceMeta& /*meta*/,
                  const pipeline::EventBatch& batch) override {
    events.insert(events.end(), batch.fn_events.begin(), batch.fn_events.end());
    samples.insert(samples.end(), batch.temp_samples.begin(), batch.temp_samples.end());
    return Status::ok();
  }
  std::vector<FnEvent> events;
  std::vector<TempSample> samples;
};

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

  // The reader's pre-pass rejects the cut at open, before any batch.
  auto opened = pipeline::ChunkedTraceSource::open(cut);
  ASSERT_FALSE(opened.is_ok());
  EXPECT_NE(opened.message().find("truncated"), std::string::npos) << opened.message();
  EXPECT_EQ(opened.message().rfind(cut + ": ", 0), 0u) << opened.message();
}

TEST(ChunkedTraceSource, TrailingBytesRejected) {
  const Trace t = sorted_single_trace();
  const std::string path = temp_path("trailing.trace");
  ASSERT_TRUE(write_trace_file(path, t));
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << "junk";
  out.close();

  // Rejected at open, before any batch.
  auto opened = pipeline::ChunkedTraceSource::open(path);
  ASSERT_FALSE(opened.is_ok());
  EXPECT_NE(opened.message().find("trailing"), std::string::npos) << opened.message();
  EXPECT_EQ(opened.message().rfind(path + ": ", 0), 0u) << opened.message();
}

TEST(OrderCheckStage, RejectsOutOfOrderStream) {
  // A stream out of time order within the window is restored, not
  // rejected: the swapped trace comes out as the oracle's stable sort.
  Trace t = sorted_single_trace();
  std::swap(t.fn_events.front(), t.fn_events.back());  // break the order
  const std::string path = temp_path("unsorted.trace");
  ASSERT_TRUE(write_trace_file(path, t));

  auto opened = pipeline::ChunkedTraceSource::open(path);
  ASSERT_TRUE(opened.is_ok()) << opened.message();
  auto source = std::move(opened).value();
  pipeline::OrderCheckStage order;
  CollectingSink collected;
  const Status ran = pipeline::run_pipeline(&source, {&order}, {&collected});
  ASSERT_TRUE(ran) << ran.message();
  const Trace oracle = oracle_of(t);
  expect_same_records(collected.events, oracle.fn_events);
  expect_same_records(collected.samples, oracle.temp_samples);
}

/// First index where two record runs differ, field by field; the run
/// length when one is a prefix of the other; -1 when equal.
template <typename Record>
long first_difference(const std::vector<Record>& got, const std::vector<Record>& want) {
  const auto same = [](const Record& a, const Record& b) {
    if constexpr (std::is_same_v<Record, FnEvent>) {
      return a.tsc == b.tsc && a.addr == b.addr && a.thread_id == b.thread_id &&
             a.node_id == b.node_id && a.kind == b.kind;
    } else {
      return a.tsc == b.tsc && a.temp_c == b.temp_c && a.node_id == b.node_id &&
             a.sensor_id == b.sensor_id;
    }
  };
  const std::size_t n = std::min(got.size(), want.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!same(got[i], want[i])) return static_cast<long>(i);
  }
  return got.size() == want.size() ? -1 : static_cast<long>(n);
}

/// Runs `source` through `stages` and holds the output to `oracle`.
void expect_oracle_order(pipeline::Source* source,
                         const std::vector<pipeline::Stage*>& stages,
                         const Trace& oracle) {
  CollectingSink collected;
  const Status ran = pipeline::run_pipeline(source, stages, {&collected});
  ASSERT_TRUE(ran) << ran.message();
  EXPECT_EQ(first_difference(collected.events, oracle.fn_events), -1);
  EXPECT_EQ(first_difference(collected.samples, oracle.temp_samples), -1);
}

/// A random run for the ordering property: per recording node, its
/// metadata, clock syncs and records in its own time order.
///
/// Each node's clock runs against the global one with a pure offset (an
/// exact fit, so records on the shared 8-tick grid tie exactly across
/// nodes after alignment) or an offset plus drift with noisy syncs. Two
/// threads per node run nested calls; samples fall on the same grid.
/// Optionally a listed node never records, and a node missing from the
/// metadata (no syncs: one clock with the global) records from global
/// tick 0, ahead of every other node in any order.
std::vector<Trace> random_ordering_nodes(std::mt19937_64* rng, int nodes, bool silent,
                                         bool unlisted) {
  std::vector<Trace> out;
  const auto pick = [rng](std::uint64_t n) { return (*rng)() % n; };
  for (int n = 0; n < nodes; ++n) {
    const auto node = static_cast<std::uint16_t>(n);
    Trace t;
    t.tsc_ticks_per_second = 1e9;
    t.nodes = {{node, "n" + std::to_string(n)}};
    t.sensors = {{node, 0, "cpu", 1.0}};
    const std::uint32_t tid = 2u * static_cast<std::uint32_t>(n);
    t.threads = {{tid, node, 0}, {tid + 1, node, 1}};
    const bool pure = pick(2) == 0;
    const double offset = static_cast<double>(pick(64) * 80);
    const double drift = pure ? 0.0 : static_cast<double>(pick(201)) * 1e-6 - 1e-4;
    const auto local = [&](std::uint64_t g) {
      return static_cast<std::uint64_t>(static_cast<double>(g) * (1.0 + drift) + offset);
    };
    for (std::uint64_t g = 0; g <= 40'000; g += 10'000) {
      t.clock_syncs.push_back({local(g), g + (pure ? 0 : pick(3)), node});
    }
    std::vector<std::pair<std::uint64_t, FnEvent>> events;  // (global, record)
    for (std::uint32_t th = tid; th < tid + 2; ++th) {
      std::uint64_t g = 96 + 8 * pick(4);
      for (int call = 0; call < 40; ++call) {
        const std::uint64_t outer = 0x1000 + pick(4) * 0x40, inner = 0x2000 + pick(4) * 0x40;
        const std::pair<std::uint64_t, FnEventKind> steps[] = {
            {outer, FnEventKind::kEnter}, {inner, FnEventKind::kEnter},
            {inner, FnEventKind::kExit}, {outer, FnEventKind::kExit}};
        for (const auto& [addr, kind] : steps) {
          events.push_back({g, {local(g), addr, th, node, kind}});
          g += 8 * (1 + pick(3));
        }
      }
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [g, e] : events) t.fn_events.push_back(e);
    for (std::uint64_t g = 96 + 8 * pick(8); g < 4'000; g += 8 * (4 + pick(4))) {
      t.temp_samples.push_back({local(g), 40.0 + static_cast<double>(pick(100)), node, 0});
    }
    out.push_back(std::move(t));
  }
  if (silent) {
    Trace t;
    t.tsc_ticks_per_second = 1e9;
    t.nodes = {{100, "silent"}};
    t.sensors = {{100, 0, "cpu", 1.0}};
    t.threads = {{100, 100, 0}};
    out.push_back(std::move(t));
  }
  if (unlisted) {
    Trace t;  // records only: no node, thread or sensor entry
    t.tsc_ticks_per_second = 1e9;
    for (std::uint64_t g = 0; g < 2'000; g += 16) {
      t.fn_events.push_back({g, 0x3000, 200, 200,
                             g % 32 == 0 ? FnEventKind::kEnter : FnEventKind::kExit});
    }
    for (std::uint64_t g = 0; g < 4'000; g += 200) {
      t.temp_samples.push_back({g, 50.0, 200, 0});
    }
    out.push_back(std::move(t));
  }
  return out;
}

enum class Interleave { kRawTsc, kAligned, kRandom };

/// One file's records from per-node runs: in raw-tsc order (as the
/// recorder writes them), in aligned order, or in a random order that
/// keeps each node in order and starts with the unlisted node.
template <typename Record>
std::vector<Record> interleave(const std::vector<std::vector<Record>>& per_node,
                               const ClockMap& clocks, Interleave mode,
                               std::mt19937_64* rng) {
  std::vector<Record> out;
  if (mode == Interleave::kRandom) {
    std::vector<std::size_t> next(per_node.size(), 0);
    std::vector<std::size_t> live;
    for (std::size_t n = 0; n < per_node.size(); ++n) {
      if (!per_node[n].empty()) live.push_back(n);
    }
    bool first = true;
    while (!live.empty()) {
      // The unlisted node is last in per_node and must open its lane
      // before another node's release can pass it.
      const std::size_t slot =
          first && per_node.back().size() > 0 && per_node.back().front().node_id == 200
              ? live.size() - 1
              : (*rng)() % live.size();
      first = false;
      const std::size_t n = live[slot];
      out.push_back(per_node[n][next[n]++]);
      if (next[n] == per_node[n].size()) live.erase(live.begin() + static_cast<long>(slot));
    }
    return out;
  }
  for (const auto& records : per_node) out.insert(out.end(), records.begin(), records.end());
  const auto key = [&](const Record& r) {
    return mode == Interleave::kAligned ? clocks.to_global(r.node_id, r.tsc) : r.tsc;
  };
  std::stable_sort(out.begin(), out.end(),
                   [&](const Record& a, const Record& b) { return key(a) < key(b); });
  return out;
}

TEST(OrderCheckStage, MatchesSeedOrderAcrossSourcesAndBatchSizes) {
  // The property behind the one analysis path: whatever order a source
  // delivers (raw tsc as recorded, already aligned, or any order that
  // keeps each node in order) and however it is batched, the aligned
  // stream leaves OrderCheckStage as the seed aligner's stable sort,
  // field by field — through ChunkedTraceSource, MemoryTraceSource and,
  // one file per node, RankFanIn.
  std::mt19937_64 rng(2007);
  std::size_t cross_node_ties = 0;
  for (int run = 0; run < 18; ++run) {
    const int nodes = 1 + run % 8;
    const bool silent = run % 3 == 1, unlisted = run % 2 == 1;
    const std::vector<Trace> parts = random_ordering_nodes(&rng, nodes, silent, unlisted);

    Trace file;
    std::vector<std::vector<FnEvent>> events;
    std::vector<std::vector<TempSample>> samples;
    for (const Trace& part : parts) {
      file.append(part);
      file.clock_syncs.insert(file.clock_syncs.end(), part.clock_syncs.begin(),
                              part.clock_syncs.end());
      events.push_back(part.fn_events);
      samples.push_back(part.temp_samples);
    }
    const ClockMap clocks(fit_clocks(file.clock_syncs));
    for (const Interleave mode :
         {Interleave::kRawTsc, Interleave::kAligned, Interleave::kRandom}) {
      SCOPED_TRACE("run " + std::to_string(run) + ", " + std::to_string(nodes) +
                   " node(s), order " + std::to_string(static_cast<int>(mode)));
      file.fn_events = interleave(events, clocks, mode, &rng);
      file.temp_samples = interleave(samples, clocks, mode, &rng);
      const Trace oracle = oracle_of(file);
      for (std::size_t i = 1; i < oracle.fn_events.size(); ++i) {
        cross_node_ties += oracle.fn_events[i].tsc == oracle.fn_events[i - 1].tsc &&
                           oracle.fn_events[i].node_id != oracle.fn_events[i - 1].node_id;
      }
      const std::string path = temp_path("ordering.trace");
      ASSERT_TRUE(write_trace_file(path, file));
      for (const std::size_t batch : {std::size_t{1}, std::size_t{3}, std::size_t{37},
                                      pipeline::kDefaultBatchRecords}) {
        SCOPED_TRACE("batch_records " + std::to_string(batch));
        pipeline::TraceInput from_file;
        ASSERT_TRUE(from_file.open({path}, true, 1, {batch}));
        CollectingSink got;
        ASSERT_TRUE(from_file.run({&got}));
        EXPECT_EQ(first_difference(got.events, oracle.fn_events), -1);
        EXPECT_EQ(first_difference(got.samples, oracle.temp_samples), -1);

        pipeline::TraceInput in_memory;
        in_memory.open(file, true, {batch});
        CollectingSink got_memory;
        ASSERT_TRUE(in_memory.run({&got_memory}));
        EXPECT_EQ(first_difference(got_memory.events, oracle.fn_events), -1);
        EXPECT_EQ(first_difference(got_memory.samples, oracle.temp_samples), -1);
      }
    }

    // One file per node, and one per pair of nodes (a rank then holds
    // two skewed nodes, in recorded order), merged by the fan-in with
    // alignment on and off: ties go to the lower path, as in a stable
    // sort of the concatenation, aligned or raw.
    for (const std::size_t per_rank : {std::size_t{1}, std::size_t{2}}) {
      std::vector<Trace> ranks;
      std::vector<std::string> paths;
      for (std::size_t r = 0; r < parts.size(); r += per_rank) {
        const auto first = parts.begin() + static_cast<std::ptrdiff_t>(r);
        const auto last = first + static_cast<std::ptrdiff_t>(std::min(per_rank, parts.size() - r));
        ranks.push_back(concatenated(std::vector<Trace>(first, last)));
        ranks.back().sort_by_time();  // by recorded tsc
        paths.push_back(temp_path("ordering_rank" + std::to_string(paths.size()) + ".trace"));
        ASSERT_TRUE(write_trace_file(paths.back(), ranks.back()));
      }
      for (const bool align : {true, false}) {
        Trace fan_oracle = concatenated(ranks);
        if (align) parser::reference::align_clocks_seed(&fan_oracle);
        parser::reference::sort_by_time_seed(&fan_oracle);
        for (const std::size_t batch : {std::size_t{1}, std::size_t{3}, std::size_t{37},
                                        pipeline::kDefaultBatchRecords}) {
          SCOPED_TRACE("run " + std::to_string(run) + " fan-in, " +
                       std::to_string(per_rank) + " node(s) per rank, align " +
                       std::to_string(align) + ", batch_records " + std::to_string(batch));
          auto opened = pipeline::RankFanIn::open(paths, {batch}, align);
          ASSERT_TRUE(opened.is_ok()) << opened.message();
          auto fan = std::move(opened).value();
          expect_oracle_order(&fan, {}, fan_oracle);
        }
      }
    }
  }
  EXPECT_GT(cross_node_ties, 0u);  // exact ties between nodes were exercised
}

TEST(OrderCheckStage, HoldsBackEachNodesLatestRecord) {
  // One node whose thread 0 exit (tsc 300) is written before its enter
  // (200). Release is strictly below W, so each node's latest record
  // stays held and the enter, arriving next, still sorts ahead of it —
  // even one record per batch.
  Trace t = sorted_single_trace();
  t.clock_syncs.clear();
  t.fn_events = {{100, 0x2000, 1, 0, FnEventKind::kEnter},
                 {300, 0x1000, 0, 0, FnEventKind::kExit},
                 {200, 0x1000, 0, 0, FnEventKind::kEnter},
                 {400, 0x2000, 1, 0, FnEventKind::kExit}};
  const Trace oracle = oracle_of(t);
  for (const std::size_t batch : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                  pipeline::kDefaultBatchRecords}) {
    SCOPED_TRACE("batch_records " + std::to_string(batch));
    pipeline::MemoryTraceSource source(t, {batch});
    pipeline::OrderCheckStage order;
    expect_oracle_order(&source, {&order}, oracle);
  }
}

TEST(OrderCheckStage, BoundStopsASilentListedNode) {
  // Node 1 is listed but never records, so it pins W at zero. Past
  // 2^20 held records it stops counting and node 0's events flow; the
  // window never holds more than the bound. A record from node 1 that
  // then lands behind released output fails the run and names it.
  constexpr std::size_t kBound = pipeline::OrderCheckStage::kMaxHeldRecords;
  Trace t;
  t.tsc_ticks_per_second = 1e9;
  t.nodes = {{0, "busy"}, {1, "silent"}};
  t.threads = {{0, 0, 0}, {1, 1, 0}};
  const std::size_t n = kBound + 2 * pipeline::kDefaultBatchRecords;
  t.fn_events.reserve(n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    t.fn_events.push_back({1000 + i, 0x1000, 0, 0,
                           i % 2 == 0 ? FnEventKind::kEnter : FnEventKind::kExit});
  }
  {
    tempest::telemetry::metrics().reset();
    pipeline::MemoryTraceSource source(t);
    pipeline::OrderCheckStage order;
    pipeline::CountingSink counter;
    const Status ran = pipeline::run_pipeline(&source, {&order}, {&counter});
    ASSERT_TRUE(ran) << ran.message();
    EXPECT_EQ(counter.fn_events(), n);
    const std::int64_t held = tempest::telemetry::metrics().snapshot().gauge(
        tempest::telemetry::Gauge::kPipelineOrderHeldMax);
    EXPECT_LE(held, static_cast<std::int64_t>(kBound));
    EXPECT_GT(held, static_cast<std::int64_t>(kBound / 2));  // held until the bound
  }
  t.fn_events.push_back({1500, 0x2000, 1, 1, FnEventKind::kEnter});
  pipeline::MemoryTraceSource source(t);
  pipeline::OrderCheckStage order;
  pipeline::CountingSink counter;
  const Status ran = pipeline::run_pipeline(&source, {&order}, {&counter});
  ASSERT_FALSE(ran);
  EXPECT_NE(ran.message().find("node 1 "), std::string::npos) << ran.message();
  EXPECT_NE(ran.message().find(" s behind"), std::string::npos) << ran.message();
  EXPECT_NE(ran.message().find(std::to_string(kBound)), std::string::npos)
      << ran.message();
}

/// Four nodes, one thread each, taking turns on a 10-tick grid, with
/// node n's clock 1000 * n ticks ahead of the global one; `raw` writes
/// them in recorded-tsc order, otherwise in global order.
Trace round_robin_trace(bool raw) {
  Trace t;
  t.tsc_ticks_per_second = 1e9;
  std::vector<std::pair<std::uint64_t, std::size_t>> order;
  for (std::uint16_t n = 0; n < 4; ++n) {
    t.nodes.push_back({n, "n" + std::to_string(n)});
    t.sensors.push_back({n, 0, "cpu", 1.0});
    t.threads.push_back({n, n, 0});
    t.clock_syncs.push_back({1000u * n, 0, n});
    t.clock_syncs.push_back({1000u * n + 100'000, 100'000, n});
  }
  for (std::uint64_t i = 0; i < 2000; ++i) {
    for (std::uint16_t n = 0; n < 4; ++n) {
      const std::uint64_t g = 100 + 40 * i + 10 * n;
      t.fn_events.push_back({g + 1000u * n, 0x1000, n, n,
                             i % 2 == 0 ? FnEventKind::kEnter : FnEventKind::kExit});
      if (i % 10 == 0) t.temp_samples.push_back({g + 1000u * n, 45.0, n, 0});
    }
  }
  if (raw) t.sort_by_time();  // by recorded tsc
  return t;
}

TEST(OrderCheckStage, HeldGaugeTracksTheWindow) {
  namespace telemetry = tempest::telemetry;
  const auto held_max = [](const Trace& t) {
    telemetry::metrics().reset();
    pipeline::TraceInput input;
    input.open(t, true, {256});
    pipeline::CountingSink counter;
    EXPECT_TRUE(input.run({&counter}));
    return telemetry::metrics().snapshot().gauge(telemetry::Gauge::kPipelineOrderHeldMax);
  };
  EXPECT_LE(held_max(round_robin_trace(false)), 64);
  EXPECT_GT(held_max(round_robin_trace(true)), 64);
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
/// comparison between the in-memory and streaming sources.
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

/// The in-memory entry point over a whole loaded trace, with the series.
Rendered render_in_memory(const Trace& t) {
  pipeline::AnalysisOptions options;
  options.want_series = true;
  auto analyzed = pipeline::analyze_trace(t, options);
  EXPECT_TRUE(analyzed.is_ok()) << analyzed.message();
  if (!analyzed.is_ok()) return {};
  return render(analyzed.value().profile, analyzed.value().series);
}

TEST(StreamingEquivalence, SingleFileMatchesBatchPath) {
  const Trace t = sorted_single_trace();
  const std::string path = temp_path("equiv.trace");
  ASSERT_TRUE(write_trace_file(path, t));

  // In memory: the whole file loaded, then analyze_trace.
  auto loaded = read_trace_file(path);
  ASSERT_TRUE(loaded.is_ok());
  const Rendered batch = render_in_memory(loaded.value());

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

  // In-memory reference: the concatenated raw trace (fits from the
  // concatenated sync stream), aligned and ordered by the in-memory
  // path — the workflow the fan-in replaces.
  const Rendered batch = render_in_memory(concatenated(ranks));

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

/// The metadata every sink sees at begin().
class MetaAtBeginSink : public pipeline::BatchSink {
 public:
  Status begin(const pipeline::TraceMeta& meta) override {
    meta_at_begin = meta;
    return Status::ok();
  }
  Status on_batch(const pipeline::TraceMeta& /*meta*/,
                  const pipeline::EventBatch& /*batch*/) override {
    return Status::ok();
  }
  pipeline::TraceMeta meta_at_begin;
};

TEST(RankFanIn, JoinsCompleteHeadersBeforeTheFirstBatch) {
  // Two ranks on nodes 0 and 1, each with a RUNSTATS trailer (one with
  // drops) and a FLTR trailer naming a different function: the fan-in's
  // metadata is the two headers joined by TraceHeader::append, trailers
  // included, already when sinks begin.
  std::vector<Trace> ranks = {rank_trace(0, 0), rank_trace(1, 0)};
  std::vector<std::string> paths;
  for (std::uint16_t r = 0; r < 2; ++r) {
    Trace& t = ranks[r];
    t.sort_by_time();
    t.run_stats.present = true;
    t.run_stats.events_recorded = t.fn_events.size();
    t.run_stats.events_dropped = r == 0 ? 5 : 0;
    t.run_stats.tempd_samples = t.temp_samples.size();
    t.run_stats.wall_seconds = 1.5 + r;
    t.filter.present = true;
    t.filter.source = "rank" + std::to_string(r) + ".filter";
    t.filter.resolved = 1;
    t.filter.suppressed = {r == 0 ? "alpha" : "beta"};
    paths.push_back(temp_path("trailer_rank" + std::to_string(r) + ".trace"));
    ASSERT_TRUE(write_trace_file(paths.back(), t));
  }
  TraceHeader want = ranks[0];
  want.append(ranks[1]);
  ASSERT_EQ(want.run_stats.events_dropped, 5u);
  ASSERT_EQ(want.run_stats.wall_seconds, 2.5);

  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(threads) + " thread(s)");
    pipeline::TraceInput input;
    ASSERT_TRUE(input.open(paths, true, threads));
    MetaAtBeginSink sink;
    ASSERT_TRUE(input.run({&sink}));
    const TraceHeader& got = sink.meta_at_begin;
    // Every RunStats field, through the JSON the reports print.
    std::ostringstream got_json, want_json;
    report::write_profile_json(got_json, parser::RunProfile{}, &got.run_stats);
    report::write_profile_json(want_json, parser::RunProfile{}, &want.run_stats);
    EXPECT_EQ(got_json.str(), want_json.str());
    EXPECT_TRUE(got.run_stats.present);
    EXPECT_EQ(got.run_stats.events_dropped, 5u);
    EXPECT_EQ(got.run_stats.events_recorded,
              ranks[0].fn_events.size() + ranks[1].fn_events.size());
    EXPECT_EQ(got.run_stats.wall_seconds, 2.5);  // the longest rank
    EXPECT_TRUE(got.filter.present);
    EXPECT_EQ(got.filter.source, want.filter.source);
    EXPECT_EQ(got.filter.resolved, want.filter.resolved);
    EXPECT_EQ(got.filter.suppressed, (std::vector<std::string>{"alpha", "beta"}));
    EXPECT_EQ(got.nodes.size(), want.nodes.size());
    EXPECT_EQ(got.threads.size(), want.threads.size());
    EXPECT_EQ(got.sensors.size(), want.sensors.size());
  }
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

  pipeline::OrderCheckStage order;
  CollectingSink counter;
  const Status ran = pipeline::run_pipeline(&fan, {&order}, {&counter});
  ASSERT_TRUE(ran) << ran.message();
  const Trace oracle = oracle_of(concatenated({early, late}));
  expect_same_records(counter.events, oracle.fn_events);
  expect_same_records(counter.samples, oracle.temp_samples);
}

TEST(ClockMap, MatchesFitClocksOverSparseNodeIds) {
  // Random fit sets over sparse node ids, with records on fitted and
  // unfitted nodes at tsc values near 0 (where the fit goes negative
  // and clamps) and near 2^63: the dense table, the align stage and the
  // in-memory analysis path must all agree with each fit_clocks entry's
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
    pipeline::ClockAlignStage stage(fits);
    ASSERT_TRUE(stage.process(pipeline::TraceMeta{}, &batch));
    expect_same_records(batch.fn_events, want_events);
    expect_same_records(batch.temp_samples, want_samples);

    const Trace oracle = oracle_of(t);
    pipeline::MemoryTraceSource source(t);
    pipeline::ClockAlignStage align(fits);
    pipeline::OrderCheckStage order;
    CollectingSink collected;
    ASSERT_TRUE(pipeline::run_pipeline(&source, {&align, &order}, {&collected}));
    expect_same_records(collected.events, oracle.fn_events);
    expect_same_records(collected.samples, oracle.temp_samples);
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
  // The in-memory path, ClockAlignStage and RankFanIn over one drifted
  // three-rank run (sparse node ids, noisy syncs) against the map-based
  // oracle: the same aligned timestamps, and for the two ordering paths
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
  const Trace oracle = oracle_of(combined);

  pipeline::TraceInput in_memory;
  in_memory.open(combined);
  CollectingSink collected;
  ASSERT_TRUE(in_memory.run({&collected}));
  expect_same_records(collected.events, oracle.fn_events);
  expect_same_records(collected.samples, oracle.temp_samples);

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
  // keeps. lint_trace_file feeds the reader's samples and syncs first,
  // lint_trace events first; the reports must not differ in which
  // findings survive or their order.
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

    const std::string path = temp_path("lint_order.trace");
    ASSERT_TRUE(write_trace_file(path, t));
    const auto from_file = analysis::lint_trace_file(path, options);
    ASSERT_TRUE(from_file.is_ok()) << from_file.message();

    EXPECT_EQ(analysis::to_json(from_file.value()), analysis::to_json(batch));
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

TEST(AnalysisPipeline, SamplesAfterEventsAreAContractError) {
  // The fold credits samples while it replays the events, so with
  // `thermal` on every sample must come before the first event and in
  // time order. The pipeline says so, directly and through
  // AnalysisSink; with `thermal` off samples only widen the run's
  // bounds, in any order.
  const Trace t = rank_trace(0, 0);
  const auto has = [](const Status& s, const std::string& what) {
    return !s && s.message().find(what) != std::string::npos;
  };
  const std::string after = "after fn events";
  {
    pipeline::AnalysisPipeline fold;
    fold.set_metadata(t);
    fold.add_fn_events(t.fn_events.data(), 1);
    EXPECT_TRUE(has(fold.add_temp_samples(t.temp_samples.data(), 1), after));
  }
  {
    pipeline::AnalysisPipeline fold;
    fold.set_metadata(t);
    ASSERT_TRUE(fold.add_temp_samples(t.temp_samples.data() + 1, 1));
    EXPECT_TRUE(has(fold.add_temp_samples(t.temp_samples.data(), 1), "time order"));
  }
  {
    pipeline::AnalysisSink sink;
    ASSERT_TRUE(sink.begin(t));
    pipeline::EventBatch events;
    events.fn_events = t.fn_events;
    ASSERT_TRUE(sink.on_batch(t, events));
    pipeline::EventBatch samples;
    samples.temp_samples = t.temp_samples;
    EXPECT_TRUE(has(sink.on_batch(t, samples), after));
  }
  {
    pipeline::AnalysisOptions options;
    options.thermal = false;
    pipeline::AnalysisPipeline fold(options);
    fold.set_metadata(t);
    fold.add_fn_events(t.fn_events.data(), t.fn_events.size());
    EXPECT_TRUE(fold.add_temp_samples(t.temp_samples.data() + 1, 1));
    EXPECT_TRUE(fold.add_temp_samples(t.temp_samples.data(), 1));
  }
}

}  // namespace
