// Timeline reconstruction and the sample attribution done during the
// replay: the Table 1 conditions (single function, multiple,
// interleaving, recursion + interleaving), unbalanced traces, and the
// half-open [begin, end) boundaries — checked on which samples each
// function is credited with, however the samples-first feed is split —
// and the fold's memory bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "live_heap.hpp"
#include "parser/timeline.hpp"

namespace {

using namespace tempest::parser;
using tempest::trace::FnEvent;
using tempest::trace::FnEventKind;
using tempest::trace::TempSample;
using tempest::trace::Trace;

using Ticks = std::vector<std::uint64_t>;

/// Threads 0 and 1 run on nodes 0 and 1; each node gets samples at the
/// given timestamps.
Trace trace_with(std::vector<FnEvent> events, const Ticks& node0_samples = {},
                 const Ticks& node1_samples = {}) {
  Trace t;
  t.tsc_ticks_per_second = 1e9;
  t.threads = {{0, 0, 0}, {1, 1, 0}};
  t.fn_events = std::move(events);
  for (const std::uint64_t at : node0_samples) t.temp_samples.push_back({at, 40.0, 0, 0});
  for (const std::uint64_t at : node1_samples) t.temp_samples.push_back({at, 50.0, 1, 0});
  t.sort_by_time();
  return t;
}

FnEvent enter(std::uint64_t tsc, std::uint64_t addr, std::uint32_t tid = 0) {
  return {tsc, addr, tid, 0, FnEventKind::kEnter};
}
FnEvent exit_(std::uint64_t tsc, std::uint64_t addr, std::uint32_t tid = 0) {
  return {tsc, addr, tid, 0, FnEventKind::kExit};
}

/// Timestamps of the samples credited to `fa`, read back through its
/// ranges over the node's samples in arrival order.
Ticks credited(const Trace& t, const FunctionActivity& fa) {
  Ticks node_samples;
  for (const TempSample& s : t.temp_samples) {
    if (s.node_id == fa.node_id) node_samples.push_back(s.tsc);
  }
  Ticks out;
  for (const SampleRange& r : fa.samples) {
    EXPECT_LT(r.first, r.last);
    EXPECT_LE(r.last, node_samples.size());
    for (std::uint32_t i = r.first; i < r.last && i < node_samples.size(); ++i) {
      out.push_back(node_samples[i]);
    }
  }
  return out;
}

const SpanFilter kKeepAllSpans = [](std::uint64_t) { return true; };

TEST(Timeline, SingleFunction) {  // Table 1 case B
  const Trace t = trace_with({enter(100, 1), exit_(600, 1)}, {99, 100, 599, 600});
  const auto tl = build_timeline(t);
  ASSERT_EQ(tl.size(), 1u);
  const auto& fn = tl.at({0, 1});
  EXPECT_EQ(fn.calls, 1u);
  EXPECT_EQ(fn.activations, 1u);
  EXPECT_EQ(fn.total_ticks, 500u);
  EXPECT_EQ(fn.first_begin, 100u);
  EXPECT_EQ(fn.last_end, 600u);
  // Half-open: the sample at the enter tick counts, the one at the exit
  // tick does not.
  EXPECT_EQ(credited(t, fn), (Ticks{100, 599}));
}

TEST(Timeline, MultipleSequentialFunctions) {  // Table 1 case C
  const Trace t = trace_with(
      {
          enter(0, 1), exit_(100, 1),
          enter(100, 2), exit_(300, 2),
          enter(300, 3), exit_(600, 3),
      },
      {50, 100, 299, 300, 599});
  const auto tl = build_timeline(t);
  EXPECT_EQ(tl.at({0, 1}).total_ticks, 100u);
  EXPECT_EQ(tl.at({0, 2}).total_ticks, 200u);
  EXPECT_EQ(tl.at({0, 3}).total_ticks, 300u);
  // A sample on a hand-over tick belongs to the function that starts.
  EXPECT_EQ(credited(t, tl.at({0, 1})), (Ticks{50}));
  EXPECT_EQ(credited(t, tl.at({0, 2})), (Ticks{100, 299}));
  EXPECT_EQ(credited(t, tl.at({0, 3})), (Ticks{300, 599}));
}

TEST(Timeline, InterleavedNesting) {  // Table 1 case D
  // main(10) { foo1(20) { foo2(30..40) } (50) } foo2(60..70) main exit 80.
  const Trace t = trace_with(
      {
          enter(10, 100),              // main
          enter(20, 1),                // foo1
          enter(30, 2), exit_(40, 2),  // foo2 inside foo1
          exit_(50, 1),                // foo1
          enter(60, 2), exit_(70, 2),  // foo2 from main
          exit_(80, 100),
      },
      {35, 65, 75});
  const auto tl = build_timeline(t, nullptr, kKeepAllSpans);
  EXPECT_EQ(tl.at({0, 100}).total_ticks, 70u);  // inclusive main
  EXPECT_EQ(tl.at({0, 1}).total_ticks, 30u);    // foo1 inclusive of foo2
  EXPECT_EQ(tl.at({0, 2}).total_ticks, 20u);    // two activations
  EXPECT_EQ(tl.at({0, 2}).calls, 2u);
  ASSERT_EQ(tl.at({0, 2}).spans.size(), 2u);
  // Inclusive attribution: a sample credits every function on the stack.
  EXPECT_EQ(credited(t, tl.at({0, 100})), (Ticks{35, 65, 75}));
  EXPECT_EQ(credited(t, tl.at({0, 1})), (Ticks{35}));
  EXPECT_EQ(credited(t, tl.at({0, 2})), (Ticks{35, 65}));
}

TEST(Timeline, RecursionCollapsesToOutermost) {  // Table 1 case E
  // f enters at 0, recurses at 10 and 20, unwinds 30/40, exits 100.
  const Trace t = trace_with(
      {
          enter(0, 7), enter(10, 7), enter(20, 7),
          exit_(30, 7), exit_(40, 7), exit_(100, 7),
      },
      {5, 25, 35, 99, 100});
  const auto tl = build_timeline(t, nullptr, kKeepAllSpans);
  const auto& fn = tl.at({0, 7});
  EXPECT_EQ(fn.calls, 3u);
  EXPECT_EQ(fn.activations, 1u);
  EXPECT_EQ(fn.total_ticks, 100u);  // not 100+30+10 double-counted
  ASSERT_EQ(fn.spans.size(), 1u);
  EXPECT_EQ(fn.spans[0].begin, 0u);
  EXPECT_EQ(fn.spans[0].end, 100u);
  // Each sample once, however deep the recursion was at that instant.
  EXPECT_EQ(credited(t, fn), (Ticks{5, 25, 35, 99}));
}

TEST(Timeline, RecursionWithInterleaving) {
  // f { g { f } } — mutual nesting; f's inclusive time spans everything.
  const Trace t = trace_with(
      {
          enter(0, 1), enter(10, 2), enter(20, 1),
          exit_(30, 1), exit_(40, 2), exit_(50, 1),
      },
      {5, 15, 25, 35, 45});
  const auto tl = build_timeline(t);
  EXPECT_EQ(tl.at({0, 1}).total_ticks, 50u);
  EXPECT_EQ(tl.at({0, 2}).total_ticks, 30u);
  EXPECT_EQ(tl.at({0, 1}).calls, 2u);
  EXPECT_EQ(credited(t, tl.at({0, 1})), (Ticks{5, 15, 25, 35, 45}));
  EXPECT_EQ(credited(t, tl.at({0, 2})), (Ticks{15, 25, 35}));
}

TEST(Timeline, UnmatchedExitIsCountedAndIgnored) {
  TimelineDiagnostics diag;
  const auto tl = build_timeline(
      trace_with({exit_(50, 9), enter(100, 1), exit_(200, 1)}), &diag);
  EXPECT_EQ(diag.unmatched_exits, 1u);
  EXPECT_EQ(tl.count({0, 9}), 0u);
  EXPECT_EQ(tl.at({0, 1}).total_ticks, 100u);
}

TEST(Timeline, OpenFunctionsForceClosedAtTraceEnd) {
  TimelineDiagnostics diag;
  const Trace t = trace_with({enter(0, 1), enter(100, 2), exit_(300, 2)}, {150, 300});
  const auto tl = build_timeline(t, &diag);
  EXPECT_EQ(diag.force_closed, 1u);
  EXPECT_EQ(tl.at({0, 1}).total_ticks, 300u);  // closed at end (tsc 300)
  EXPECT_EQ(tl.at({0, 1}).last_end, 300u);
  // The force-closed activation is half-open at the trace end too.
  EXPECT_EQ(credited(t, tl.at({0, 1})), (Ticks{150}));
  EXPECT_EQ(credited(t, tl.at({0, 2})), (Ticks{150}));
}

TEST(Timeline, ThreadsAreIndependent) {
  // Same address on two threads; each timeline replay is separate,
  // total_ticks sums the per-thread inclusive times, and each node's
  // samples credit only that node's activity.
  const Trace t = trace_with(
      {
          enter(0, 5, 0), enter(50, 5, 1), exit_(100, 5, 0), exit_(200, 5, 1),
      },
      {60, 150}, {40, 60, 150});
  const auto tl = build_timeline(t);
  // thread 0 node 0: [0,100); thread 1 node 1: [50,200).
  EXPECT_EQ(tl.at({0, 5}).total_ticks, 100u);
  EXPECT_EQ(tl.at({1, 5}).total_ticks, 150u);
  EXPECT_EQ(credited(t, tl.at({0, 5})), (Ticks{60}));
  EXPECT_EQ(credited(t, tl.at({1, 5})), (Ticks{60, 150}));
}

TEST(Timeline, ThreadsOfOneNodeCreditEachSampleOnce) {
  // Two threads of node 0 run f over overlapping spans: the union, not
  // the sum, decides which samples f is credited with. So do threads 5
  // and 6, which the metadata does not list: g's activations on them
  // land in one (g, node) tally, the inner [50, 90) closing first.
  Trace t = trace_with({enter(0, 5, 0), enter(50, 5, 2), exit_(100, 5, 0),
                        exit_(200, 5, 2), enter(10, 6, 5), enter(50, 6, 6),
                        exit_(90, 6, 6), exit_(180, 6, 5)},
                       {25, 75, 150, 250});
  t.threads.push_back({2, 0, 1});
  const auto tl = build_timeline(t);
  EXPECT_EQ(tl.at({0, 5}).total_ticks, 250u);
  EXPECT_EQ(credited(t, tl.at({0, 5})), (Ticks{25, 75, 150}));
  EXPECT_EQ(tl.at({0, 6}).activations, 2u);
  EXPECT_EQ(credited(t, tl.at({0, 6})), (Ticks{25, 75, 150}));
}

TEST(Timeline, AnyFeedOrderCreditsTheSameSamples) {
  // Every sample comes before the first event, whole or in uneven
  // batches, and the events follow likewise: each feed credits every
  // activation as it closes, with the same samples.
  const Trace t = trace_with(
      {enter(10, 1), enter(20, 2), exit_(40, 2), exit_(90, 1), enter(95, 2),
       exit_(120, 2)},
      {5, 30, 60, 100, 110, 130});
  const auto feed = [&t](int split) {
    TimelineAccumulator acc(t.threads);
    const auto samples = [&](std::size_t b, std::size_t e) {
      acc.add_samples(t.temp_samples.data() + b, e - b);
    };
    const auto events = [&](std::size_t b, std::size_t e) {
      acc.add_events(t.fn_events.data() + b, e - b);
    };
    const std::size_t ns = t.temp_samples.size(), ne = t.fn_events.size();
    if (split == 0) {
      samples(0, ns);
      events(0, ne);
    } else {
      samples(0, 2);
      samples(2, 4);
      samples(4, ns);
      events(0, 3);
      events(3, ne);
    }
    return acc.finish(t.end_tsc());
  };
  for (int split = 0; split < 2; ++split) {
    SCOPED_TRACE(split);
    const TimelineMap tl = feed(split);
    EXPECT_EQ(credited(t, tl.at({0, 1})), (Ticks{30, 60}));
    EXPECT_EQ(credited(t, tl.at({0, 2})), (Ticks{30, 100, 110}));
    EXPECT_EQ(tl.at({0, 2}).first_begin, 20u);
    EXPECT_EQ(tl.at({0, 2}).last_end, 120u);
  }
}

TEST(Timeline, MergeIntervalsCoalesces) {
  std::vector<Interval> ivs = {{10, 20}, {15, 30}, {40, 50}, {30, 40}, {60, 70}};
  merge_intervals(&ivs);
  ASSERT_EQ(ivs.size(), 2u);
  EXPECT_EQ(ivs[0].begin, 10u);
  EXPECT_EQ(ivs[0].end, 50u);
  EXPECT_EQ(ivs[1].begin, 60u);
  EXPECT_EQ(ivs[1].end, 70u);
}

TEST(Timeline, MergeSampleRangesCoalesces) {
  std::vector<SampleRange> ranges = {{4, 6}, {0, 2}, {5, 9}, {2, 3}, {12, 13}};
  merge_sample_ranges(&ranges);
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_EQ(ranges[0].first, 0u);
  EXPECT_EQ(ranges[0].last, 3u);
  EXPECT_EQ(ranges[1].first, 4u);
  EXPECT_EQ(ranges[1].last, 9u);
  EXPECT_EQ(ranges[2].first, 12u);
  EXPECT_EQ(ranges[2].last, 13u);
}

using live_heap::peak_heap;

TEST(Timeline, FoldMemoryGrowsWithPairsSeen) {
  // Enter i pairs address i with thread i, so every (function, thread)
  // pair is new and threads x functions is quadratic in the events:
  // first on threads missing from the metadata, then on listed threads
  // spread over many nodes (the metadata is peer input too). The fold's
  // peak heap must stay linear in the pairs seen.
  for (const bool listed : {false, true}) {
    std::int64_t per_event[2] = {0, 0};
    const std::uint32_t sizes[2] = {10000, 100000};
    for (int k = 0; k < 2; ++k) {
      const std::uint32_t n = sizes[k];
      std::vector<tempest::trace::ThreadInfo> threads;
      if (listed) {
        for (std::uint32_t i = 0; i < n; ++i) {
          threads.push_back({i, static_cast<std::uint16_t>(i % 4096), 0});
        }
      }
      std::vector<FnEvent> events;
      for (std::uint32_t i = 0; i < n; ++i) {
        events.push_back(enter(i + 1, 0x1000 + 16 * std::uint64_t{i}, i));
      }
      TimelineDiagnostics diag;
      std::size_t functions = 0;
      const std::int64_t peak = peak_heap([&] {
        TimelineAccumulator acc(threads, 4096);
        acc.add_events(events.data(), events.size());
        functions = acc.finish(n + 1, &diag).size();
      });
      EXPECT_EQ(functions, n);
      EXPECT_EQ(diag.force_closed, n);
      per_event[k] = peak / n;
    }
    // A few hundred bytes per pair: the slot, the interned address and
    // the tally. Quadratic growth would be 10x more per event at the
    // larger size (or hit the allocation cap first).
    EXPECT_LT(per_event[1], 2048) << (listed ? "listed" : "unlisted");
    EXPECT_LT(per_event[1], 2 * per_event[0]) << (listed ? "listed" : "unlisted");
  }
}

TEST(Timeline, FoldMemoryDoesNotGrowWithActivations) {
  // One function's N enter/exit pairs on one thread, folded with no
  // samples and with 64 samples that all come before the first event
  // (a node whose samples end before its activations do). Each
  // activation is credited as it closes, so nothing is kept per
  // activation: the fold's peak heap is the same at N = 1e4 and 1e6.
  // Keeping 16 bytes per activation would add 15.8 MB at 1e6.
  const std::vector<tempest::trace::ThreadInfo> threads = {{0, 0, 0}};
  std::vector<TempSample> early;
  for (std::uint64_t at = 0; at < 64; ++at) early.push_back({at, 40.0, 0, 0});
  for (const bool sampled : {false, true}) {
    std::int64_t peak[2] = {0, 0};
    const std::uint32_t sizes[2] = {10000, 1000000};
    for (int k = 0; k < 2; ++k) {
      std::vector<FnEvent> events;
      for (std::uint64_t i = 0; i < sizes[k]; ++i) {
        events.push_back(enter(100 + 2 * i, 0x1000));
        events.push_back(exit_(101 + 2 * i, 0x1000));
      }
      std::uint64_t activations = 0;
      peak[k] = peak_heap([&] {
        TimelineAccumulator acc(threads, 16);
        if (sampled) acc.add_samples(early.data(), early.size());
        acc.add_events(events.data(), events.size());
        activations = acc.finish(events.back().tsc).at({0, 0x1000}).activations;
      });
      EXPECT_EQ(activations, sizes[k]);
    }
    EXPECT_LE(peak[1], peak[0] + 4096) << (sampled ? "sampled" : "no samples");
  }
}

TEST(Timeline, EmptyTrace) {
  TimelineDiagnostics diag;
  const auto tl = build_timeline(trace_with({}), &diag);
  EXPECT_TRUE(tl.empty());
  EXPECT_EQ(diag.unmatched_exits, 0u);
}

}  // namespace
