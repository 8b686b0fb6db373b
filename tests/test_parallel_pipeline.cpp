// The parallel analysis fast path against the serial baseline.
//
// The tentpole guarantee is determinism: whatever --threads is set to,
// the profile emitted at the end is byte-identical to the historical
// single-threaded run. This suite holds the three moving parts to it —
// worker-pool section decode + read-ahead (PrefetchSource), the sharded
// timeline fold, and the full pipeline composition — across 1/2/4/8
// workers, over a single-file trace big enough to actually engage the
// parallel decode slicing and over the paper's 4-rank fan-in workflow.
// Runs under TSan in CI (concurrency label).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/worker_pool.hpp"
#include "parser/timeline.hpp"
#include "parser/timeline_shard.hpp"
#include "pipeline/analysis.hpp"
#include "pipeline/prefetch.hpp"
#include "pipeline/rank_fanin.hpp"
#include "pipeline/sinks.hpp"
#include "pipeline/source.hpp"
#include "pipeline/stages.hpp"
#include "trace/trace.hpp"
#include "trace/writer.hpp"

namespace {

using namespace tempest;
using namespace tempest::trace;
namespace pipeline = tempest::pipeline;
namespace parser = tempest::parser;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// A single-node trace large enough that the staged reader's parallel
/// decode actually slices (the pool path needs thousands of records per
/// section read): 8 threads, ~n_events interleaved enters/exits with
/// recursion and some frames left open for the force-close path.
Trace big_trace(std::size_t n_events, std::uint32_t seed) {
  Trace t;
  t.tsc_ticks_per_second = 1e9;
  t.executable = "bigapp";
  t.nodes = {{0, "node0"}};
  t.sensors = {{0, 0, "cpu", 1.0}};
  constexpr std::uint32_t kThreads = 8;
  for (std::uint32_t tid = 0; tid < kThreads; ++tid) {
    t.threads.push_back({tid, 0, static_cast<std::uint16_t>(tid)});
  }

  std::mt19937_64 rng(seed);
  std::uint64_t tsc = 1000;
  std::vector<std::vector<std::uint64_t>> stacks(kThreads);
  for (std::size_t i = 0; i < n_events; ++i) {
    tsc += 1 + (rng() % 5);
    const std::uint32_t tid = static_cast<std::uint32_t>(rng() % kThreads);
    auto& stack = stacks[tid];
    const bool enter = stack.empty() || (stack.size() < 6 && (rng() & 1));
    if (enter) {
      const std::uint64_t addr = 0x1000 + (rng() % 32) * 16;
      stack.push_back(addr);
      t.fn_events.push_back({tsc, addr, tid, 0, FnEventKind::kEnter});
    } else {
      const std::uint64_t addr = stack.back();
      stack.pop_back();
      t.fn_events.push_back({tsc, addr, tid, 0, FnEventKind::kExit});
    }
    if (i % 97 == 0) {
      t.temp_samples.push_back(
          {tsc, 40.0 + static_cast<double>(rng() % 400) * 0.1, 0, 0});
    }
  }
  t.sort_by_time();
  return t;
}

/// One rank of a 4-rank run, clock-skewed, with syncs pinning the fit.
Trace rank_trace(std::uint16_t rank, std::uint64_t skew, std::size_t n_pairs) {
  Trace t;
  t.tsc_ticks_per_second = 1e9;
  t.executable = "mpi_app";
  t.nodes = {{rank, "rank" + std::to_string(rank)}};
  t.sensors = {{rank, 0, "cpu", 1.0}};
  const std::uint32_t tid = rank;
  t.threads = {{tid, rank, 0}};
  const std::uint64_t base = 10000 + rank * 13;
  const auto local = [&](std::uint64_t global) { return global - skew; };
  std::uint64_t g = base;
  for (std::size_t i = 0; i < n_pairs; ++i) {
    const std::uint64_t addr = 0x2000 + (i % 7) * 16;
    t.fn_events.push_back({local(g), addr, tid, rank, FnEventKind::kEnter});
    t.fn_events.push_back(
        {local(g + 40), addr, tid, rank, FnEventKind::kExit});
    if (i % 5 == 0) {
      t.temp_samples.push_back(
          {local(g + 20), 40.0 + rank + (i % 9) * 0.5, rank, 0});
    }
    g += 100;
  }
  t.clock_syncs = {{local(base), base, rank}, {local(g), g, rank}};
  return t;
}

/// Full streaming pipeline over one trace file at the given worker
/// count, emitting the JSON profile — the tool's composition, minus the
/// CLI: decode pool on the reader, PrefetchSource ahead of the fold,
/// sharded timeline in the sink.
std::string analyze_single(const std::string& path, unsigned threads) {
  auto opened = pipeline::ChunkedTraceSource::open(path);
  EXPECT_TRUE(opened.is_ok()) << opened.message();
  if (!opened.is_ok()) return {};
  auto chunked = std::move(opened).value();

  std::optional<WorkerPool> pool;
  if (threads > 1) {
    pool.emplace(threads);
    chunked.set_decode_pool(&*pool);
  }

  pipeline::AnalysisOptions options;
  options.threads = threads;
  options.want_series = true;
  std::ostringstream out;
  pipeline::JsonEmitter json(out);
  pipeline::CsvSeriesEmitter csv(out);  // series bytes must match too
  pipeline::AnalysisSink sink(options, {&json, &csv});

  pipeline::OrderCheckStage order;
  pipeline::Source* source = &chunked;
  std::optional<pipeline::PrefetchSource> prefetch;
  if (threads > 1) {
    prefetch.emplace(source);
    source = &*prefetch;
  }
  const Status ran = pipeline::run_pipeline(source, {&order}, {&sink});
  EXPECT_TRUE(ran) << ran.message();
  return out.str();
}

std::string analyze_fanin(const std::vector<std::string>& paths,
                          unsigned threads) {
  auto opened = pipeline::RankFanIn::open(paths);
  EXPECT_TRUE(opened.is_ok()) << opened.message();
  if (!opened.is_ok()) return {};
  auto fan = std::move(opened).value();

  pipeline::AnalysisOptions options;
  options.threads = threads;
  std::ostringstream out;
  pipeline::JsonEmitter json(out);
  pipeline::AnalysisSink sink(options, {&json});

  pipeline::OrderCheckStage order;
  pipeline::Source* source = &fan;
  std::optional<pipeline::PrefetchSource> prefetch;
  if (threads > 1) {
    prefetch.emplace(source);
    source = &*prefetch;
  }
  const Status ran = pipeline::run_pipeline(source, {&order}, {&sink});
  EXPECT_TRUE(ran) << ran.message();
  return out.str();
}

TEST(ParallelPipeline, SingleFileByteIdenticalAcrossWorkerCounts) {
  const Trace t = big_trace(20000, 0x9a11u);
  const std::string path = temp_path("parallel_big.trace");
  ASSERT_TRUE(write_trace_file(path, t));

  const std::string baseline = analyze_single(path, 1);
  ASSERT_FALSE(baseline.empty());
  for (const unsigned threads : {2u, 4u, 8u}) {
    EXPECT_EQ(analyze_single(path, threads), baseline)
        << threads << " workers";
  }
}

TEST(ParallelPipeline, FourRankFanInByteIdenticalAcrossWorkerCounts) {
  std::vector<std::string> paths;
  for (std::uint16_t rank = 0; rank < 4; ++rank) {
    Trace t = rank_trace(rank, 500 + rank * 1000, 200);
    t.sort_by_time();
    paths.push_back(temp_path("parallel_rank" + std::to_string(rank) +
                              ".trace"));
    ASSERT_TRUE(write_trace_file(paths.back(), t));
  }

  const std::string baseline = analyze_fanin(paths, 1);
  ASSERT_FALSE(baseline.empty());
  for (const unsigned threads : {2u, 4u, 8u}) {
    EXPECT_EQ(analyze_fanin(paths, threads), baseline)
        << threads << " workers";
  }
}

TEST(ParallelPipeline, PrefetchSourcePreservesBatchSequence) {
  const Trace t = big_trace(3000, 0x9a12u);
  pipeline::BatchOptions options;
  options.batch_records = 64;  // many small batches through the decorator

  pipeline::MemoryTraceSource direct(t, options);
  std::vector<std::size_t> direct_sizes;
  pipeline::EventBatch batch;
  bool done = false;
  while (!done) {
    batch.clear();
    ASSERT_TRUE(direct.next(&batch, &done));
    direct_sizes.push_back(batch.fn_events.size() + batch.temp_samples.size());
  }

  pipeline::MemoryTraceSource inner(t, options);
  pipeline::PrefetchSource prefetch(&inner, /*depth=*/3);
  std::vector<std::size_t> prefetch_sizes;
  done = false;
  while (!done) {
    batch.clear();
    ASSERT_TRUE(prefetch.next(&batch, &done));
    prefetch_sizes.push_back(batch.fn_events.size() + batch.temp_samples.size());
  }
  EXPECT_EQ(prefetch_sizes, direct_sizes);
}

/// Sharded timeline fold vs the serial accumulator over a hostile
/// stream: unmatched exits, frames left open, events on thread ids the
/// metadata never declared, recursion, and samples in two batches
/// ahead of the events — everything the drop-empty and range-union
/// merge rules have to get right.
TEST(ParallelPipeline, ShardedTimelineMatchesSerialOnFuzzedStreams) {
  for (const std::uint32_t seed : {1u, 2u, 3u, 4u}) {
    std::mt19937_64 rng(seed);
    std::vector<trace::ThreadInfo> threads;
    for (std::uint32_t tid = 0; tid < 6; ++tid) {
      threads.push_back({tid, static_cast<std::uint16_t>(tid % 3), 0});
    }
    std::vector<FnEvent> events;
    std::uint64_t tsc = 100;
    for (std::size_t i = 0; i < 5000; ++i) {
      tsc += 1 + (rng() % 3);
      // tids 6-7 are undeclared in the thread table: both folds must
      // account their activity the same way.
      const std::uint32_t tid = static_cast<std::uint32_t>(rng() % 8);
      const std::uint64_t addr = 0x4000 + (rng() % 5) * 16;
      const bool enter = (rng() % 3) != 0;  // deliberately unbalanced
      events.push_back({tsc, addr, tid, static_cast<std::uint16_t>(tid % 3),
                        enter ? FnEventKind::kEnter : FnEventKind::kExit});
    }
    const std::uint64_t end_tsc = tsc + 10;
    std::vector<TempSample> samples;
    for (std::uint64_t at = 100; at < end_tsc; at += 5 + rng() % 40) {
      samples.push_back({at, 40.0, static_cast<std::uint16_t>(rng() % 3), 0});
    }
    const std::size_t early = samples.size() / 2;
    // Keep every function's interval union so the sharded span merge is
    // checked against the serial fold too.
    const parser::SpanFilter keep_all = [](std::uint64_t) { return true; };

    parser::TimelineDiagnostics serial_diag;
    parser::TimelineAccumulator serial(threads, 0, keep_all);
    serial.add_samples(samples.data(), samples.size());
    serial.add_events(events.data(), events.size());
    const parser::TimelineMap expected =
        serial.finish(end_tsc, &serial_diag);

    for (const unsigned shards : {2u, 4u, 8u}) {
      parser::TimelineDiagnostics diag;
      parser::ShardedTimelineAccumulator sharded(threads, 0, shards, keep_all);
      // Samples in two batches, then events in uneven chunks to exercise
      // the queue hand-off.
      sharded.add_samples(samples.data(), early);
      sharded.add_samples(samples.data() + early, samples.size() - early);
      std::size_t pos = 0;
      while (pos < events.size()) {
        const std::size_t n = std::min<std::size_t>(
            events.size() - pos, 1 + (rng() % 700));
        sharded.add_events(events.data() + pos, n);
        pos += n;
      }
      const parser::TimelineMap got = sharded.finish(end_tsc, &diag);

      EXPECT_EQ(diag.unmatched_exits, serial_diag.unmatched_exits)
          << "seed " << seed << " shards " << shards;
      EXPECT_EQ(diag.force_closed, serial_diag.force_closed)
          << "seed " << seed << " shards " << shards;
      ASSERT_EQ(got.size(), expected.size())
          << "seed " << seed << " shards " << shards;
      auto e = expected.begin();
      for (auto g = got.begin(); g != got.end(); ++g, ++e) {
        EXPECT_EQ(g->first, e->first);
        EXPECT_EQ(g->second.addr, e->second.addr);
        EXPECT_EQ(g->second.node_id, e->second.node_id);
        EXPECT_EQ(g->second.total_ticks, e->second.total_ticks);
        EXPECT_EQ(g->second.calls, e->second.calls);
        EXPECT_EQ(g->second.activations, e->second.activations);
        EXPECT_TRUE(g->second.ticks_sq == e->second.ticks_sq);
        EXPECT_EQ(g->second.first_begin, e->second.first_begin);
        EXPECT_EQ(g->second.last_end, e->second.last_end);
        ASSERT_EQ(g->second.samples.size(), e->second.samples.size());
        for (std::size_t i = 0; i < g->second.samples.size(); ++i) {
          EXPECT_EQ(g->second.samples[i].first, e->second.samples[i].first);
          EXPECT_EQ(g->second.samples[i].last, e->second.samples[i].last);
        }
        ASSERT_EQ(g->second.spans.size(), e->second.spans.size());
        for (std::size_t i = 0; i < g->second.spans.size(); ++i) {
          EXPECT_EQ(g->second.spans[i].begin, e->second.spans[i].begin);
          EXPECT_EQ(g->second.spans[i].end, e->second.spans[i].end);
        }
      }
    }
  }
}

/// The pool's parallel-for must cover every index exactly once and be
/// reusable across jobs (the reader issues one for_slices per section).
TEST(ParallelPipeline, WorkerPoolCoversAllSlices) {
  WorkerPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::atomic<int>> hits(10007);
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    pool.for_slices(hits.size(), 64, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1)
          << "round " << round << " index " << i;
    }
  }
}

}  // namespace
