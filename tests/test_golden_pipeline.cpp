// Golden equivalence: the analysis fast path (v2 bulk trace I/O, the
// compact timeline fold crediting samples as it replays) must produce
// results identical to the seed pipeline preserved in tests/reference.
// The recorder's event order is pinned separately, against the seed's
// stable sort, by tests/test_drain.cpp.
// The synthetic trace exercises every semantic corner the optimisations
// could disturb: per-thread runs, cross-thread interleaving, recursion,
// an unmatched exit, an activation left open at trace end, duplicate
// sample timestamps, and functions too short to be significant.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "parser/parse.hpp"
#include "parser/profile.hpp"
#include "parser/timeline.hpp"
#include "parser/timeline_shard.hpp"
#include "pipeline/analysis.hpp"
#include "pipeline/sinks.hpp"
#include "pipeline/source.hpp"
#include "reference/reference.hpp"
#include "trace/reader.hpp"
#include "trace/trace.hpp"
#include "trace/writer.hpp"

namespace {

using namespace tempest;
using namespace tempest::trace;
using namespace tempest::parser;

constexpr std::uint64_t kFnA = 0x1000;  // long-running, recursive on t0
constexpr std::uint64_t kFnB = 0x2000;  // interleaved across threads
constexpr std::uint64_t kFnC = 0x3000;  // too short to be significant
constexpr std::uint64_t kFnD = 0x4000;  // left open at trace end

/// Three nodes, six threads; events appended per thread in time order,
/// the registration-order concatenation ThreadRegistry::drain_into
/// merges.
Trace golden_trace() {
  Trace t;
  t.tsc_ticks_per_second = 1e9;
  t.executable = "golden";
  t.load_bias = 0x1000;
  t.nodes = {{0, "alpha"}, {1, "beta"}, {2, "gamma"}};
  t.sensors = {{0, 0, "cpu0", 1.0}, {0, 1, "sink0", 0.5},
               {1, 0, "cpu1", 1.0}, {2, 0, "cpu2", 1.0}};
  t.threads = {{0, 0, 0}, {1, 0, 1}, {2, 1, 0}, {3, 1, 1}, {4, 2, 0}, {5, 2, 1}};

  const auto push_run = [&t](std::uint32_t tid, std::uint16_t node,
                             std::vector<FnEvent> events) {
    for (auto& e : events) {
      e.thread_id = tid;
      e.node_id = node;
      t.fn_events.push_back(e);
    }
  };

  // t0 (node 0): recursion on A — nested activations collapse into one
  // interval per outermost call — plus a short C activation inside.
  push_run(0, 0,
           {{100, kFnA, 0, 0, FnEventKind::kEnter},
            {200, kFnA, 0, 0, FnEventKind::kEnter},
            {300, kFnC, 0, 0, FnEventKind::kEnter},
            {320, kFnC, 0, 0, FnEventKind::kExit},
            {700, kFnA, 0, 0, FnEventKind::kExit},
            {900, kFnA, 0, 0, FnEventKind::kExit}});
  // t1 (node 0): B interleaved with t0's A, plus an unmatched exit.
  push_run(1, 0,
           {{150, kFnB, 0, 0, FnEventKind::kEnter},
            {450, kFnB, 0, 0, FnEventKind::kExit},
            {460, kFnC, 0, 0, FnEventKind::kExit},  // unmatched
            {500, kFnB, 0, 0, FnEventKind::kEnter},
            {850, kFnB, 0, 0, FnEventKind::kExit}});
  // t2/t3 (node 1): overlapping B activations that merge into one
  // interval; D never exits (force-closed at trace end).
  push_run(2, 1,
           {{120, kFnB, 0, 0, FnEventKind::kEnter},
            {600, kFnB, 0, 0, FnEventKind::kExit}});
  push_run(3, 1,
           {{400, kFnB, 0, 0, FnEventKind::kEnter},
            {800, kFnB, 0, 0, FnEventKind::kExit},
            {820, kFnD, 0, 0, FnEventKind::kEnter}});
  // t4/t5 (node 2): A again on another node; t5 shares a timestamp with
  // t4 (stability-sensitive tie).
  push_run(4, 2,
           {{250, kFnA, 0, 0, FnEventKind::kEnter},
            {750, kFnA, 0, 0, FnEventKind::kExit}});
  push_run(5, 2,
           {{250, kFnC, 0, 0, FnEventKind::kEnter},
            {260, kFnC, 0, 0, FnEventKind::kExit}});

  // Per-node sample blocks (concatenation is time-unsorted globally),
  // with duplicate timestamps inside node 0 and across sensors.
  t.temp_samples = {
      {180, 40.0, 0, 0}, {180, 41.0, 0, 1}, {350, 42.0, 0, 0},
      {350, 42.5, 0, 0}, {640, 43.0, 0, 1}, {880, 44.0, 0, 0},
      {140, 50.0, 1, 0}, {500, 51.0, 1, 0}, {810, 52.0, 1, 0},
      {255, 60.0, 2, 0}, {700, 61.0, 2, 0},
  };
  t.clock_syncs = {{100, 100, 0}, {900, 900, 0}, {120, 121, 1},
                   {850, 852, 1}, {250, 249, 2}, {800, 799, 2}};
  return t;
}

std::vector<std::pair<std::uint64_t, std::string>> golden_names() {
  return {{kFnA, "alpha_fn"}, {kFnB, "beta_fn"}, {kFnC, "gamma_fn"}, {kFnD, "delta_fn"}};
}

/// The profile of a whole in-memory trace from a timeline built over it.
RunProfile profile_of(const Trace& t, const ProfileOptions& options,
                      const TimelineMap& timeline, TimelineDiagnostics diag) {
  ProfileAssembler assembler(options);
  assembler.set_metadata(t);
  assembler.add_samples(t.temp_samples.data(), t.temp_samples.size());
  return assembler.assemble(t.start_tsc(), t.end_tsc(), timeline,
                            golden_names(), diag);
}

/// The fast timeline against the seed's interval unions: same sums, the
/// same activity bounds, the same credited samples (the seed's
/// `contains` over the node's samples in arrival order) and — for a fold
/// that keeps every function's spans — the same unions.
void expect_timelines_equal(const Trace& t, const TimelineMap& fast,
                            const reference::SeedTimeline& seed) {
  ASSERT_EQ(fast.size(), seed.size());
  for (const auto& [key, sfi] : seed) {
    const auto it = fast.find(key);
    ASSERT_NE(it, fast.end()) << "missing (" << key.first << ", " << key.second << ")";
    const FunctionActivity& ffa = it->second;
    EXPECT_EQ(ffa.addr, sfi.addr);
    EXPECT_EQ(ffa.node_id, sfi.node_id);
    EXPECT_EQ(ffa.total_ticks, sfi.total_ticks);
    EXPECT_EQ(ffa.calls, sfi.calls);
    ASSERT_FALSE(sfi.merged.empty());
    EXPECT_EQ(ffa.first_begin, sfi.merged.front().begin);
    EXPECT_EQ(ffa.last_end, sfi.merged.back().end);

    std::vector<std::uint32_t> want, got;
    std::uint32_t pos = 0;
    for (const TempSample& s : t.temp_samples) {
      if (s.node_id != key.first) continue;
      if (sfi.contains(s.tsc)) want.push_back(pos);
      ++pos;
    }
    for (const SampleRange& r : ffa.samples) {
      for (std::uint32_t i = r.first; i < r.last; ++i) got.push_back(i);
    }
    EXPECT_EQ(got, want) << "(" << key.first << ", " << key.second << ")";

    ASSERT_EQ(ffa.spans.size(), sfi.merged.size());
    for (std::size_t i = 0; i < sfi.merged.size(); ++i) {
      EXPECT_EQ(ffa.spans[i].begin, sfi.merged[i].begin);
      EXPECT_EQ(ffa.spans[i].end, sfi.merged[i].end);
    }
  }
}

void expect_profiles_equal(const RunProfile& fast, const RunProfile& seed) {
  EXPECT_EQ(fast.unit, seed.unit);
  EXPECT_DOUBLE_EQ(fast.duration_s, seed.duration_s);
  EXPECT_EQ(fast.diagnostics.unmatched_exits, seed.diagnostics.unmatched_exits);
  EXPECT_EQ(fast.diagnostics.force_closed, seed.diagnostics.force_closed);
  ASSERT_EQ(fast.nodes.size(), seed.nodes.size());
  for (std::size_t n = 0; n < seed.nodes.size(); ++n) {
    const NodeProfile& fn_node = fast.nodes[n];
    const NodeProfile& sn = seed.nodes[n];
    EXPECT_EQ(fn_node.node_id, sn.node_id);
    EXPECT_EQ(fn_node.hostname, sn.hostname);
    EXPECT_DOUBLE_EQ(fn_node.duration_s, sn.duration_s);
    ASSERT_EQ(fn_node.functions.size(), sn.functions.size()) << "node " << sn.node_id;
    for (std::size_t f = 0; f < sn.functions.size(); ++f) {
      const FunctionProfile& ff = fn_node.functions[f];
      const FunctionProfile& sf = sn.functions[f];
      EXPECT_EQ(ff.addr, sf.addr) << sf.name;
      EXPECT_EQ(ff.name, sf.name);
      EXPECT_DOUBLE_EQ(ff.total_time_s, sf.total_time_s) << sf.name;
      EXPECT_EQ(ff.calls, sf.calls) << sf.name;
      EXPECT_EQ(ff.significant, sf.significant) << sf.name;
      ASSERT_EQ(ff.sensors.size(), sf.sensors.size()) << sf.name;
      for (std::size_t s = 0; s < sf.sensors.size(); ++s) {
        const SensorProfile& fs = ff.sensors[s];
        const SensorProfile& ss = sf.sensors[s];
        EXPECT_EQ(fs.sensor_id, ss.sensor_id) << sf.name;
        EXPECT_EQ(fs.name, ss.name) << sf.name;
        EXPECT_EQ(fs.sample_count, ss.sample_count) << sf.name;
        EXPECT_EQ(fs.stats.count, ss.stats.count) << sf.name;
        EXPECT_DOUBLE_EQ(fs.stats.min, ss.stats.min) << sf.name;
        EXPECT_DOUBLE_EQ(fs.stats.avg, ss.stats.avg) << sf.name;
        EXPECT_DOUBLE_EQ(fs.stats.max, ss.stats.max) << sf.name;
        EXPECT_DOUBLE_EQ(fs.stats.sdv, ss.stats.sdv) << sf.name;
        EXPECT_DOUBLE_EQ(fs.stats.var, ss.stats.var) << sf.name;
        EXPECT_DOUBLE_EQ(fs.stats.med, ss.stats.med) << sf.name;
        EXPECT_DOUBLE_EQ(fs.stats.mod, ss.stats.mod) << sf.name;
      }
    }
  }
}

TEST(GoldenPipeline, TimelineMatchesSeed) {
  for (const bool sorted : {true, false}) {
    SCOPED_TRACE(sorted ? "sorted" : "unsorted");
    Trace t = golden_trace();
    if (sorted) t.sort_by_time();
    TimelineDiagnostics fast_diag, seed_diag;
    const TimelineMap fast =
        build_timeline(t, &fast_diag, [](std::uint64_t) { return true; });
    const reference::SeedTimeline seed = reference::build_timeline_seed(t, &seed_diag);
    EXPECT_EQ(fast_diag.unmatched_exits, seed_diag.unmatched_exits);
    EXPECT_EQ(fast_diag.force_closed, seed_diag.force_closed);
    EXPECT_EQ(fast_diag.unmatched_exits, 1u);
    EXPECT_EQ(fast_diag.force_closed, 1u);
    expect_timelines_equal(t, fast, seed);
  }
}

TEST(GoldenPipeline, ProfileMatchesSeedExactly) {
  Trace t = golden_trace();
  t.sort_by_time();
  TimelineDiagnostics diag;
  const TimelineMap fast_tl = build_timeline(t, &diag);
  const reference::SeedTimeline seed_tl = reference::build_timeline_seed(t);
  const auto names = golden_names();
  for (const TempUnit unit : {TempUnit::kFahrenheit, TempUnit::kCelsius}) {
    ProfileOptions options;
    options.unit = unit;
    const RunProfile fast = profile_of(t, options, fast_tl, diag);
    const RunProfile seed =
        reference::build_profile_seed(t, seed_tl, names, diag, options);
    expect_profiles_equal(fast, seed);
  }
}

TEST(GoldenPipeline, ProfileMatchesSeedOnUnsortedTrace) {
  // Hand-built traces skip sort_by_time; attribution must not silently
  // assume sortedness.
  Trace t = golden_trace();
  TimelineDiagnostics diag;
  const TimelineMap fast_tl = build_timeline(t, &diag);
  const reference::SeedTimeline seed_tl = reference::build_timeline_seed(t);
  const auto names = golden_names();
  const ProfileOptions options;
  const RunProfile fast = profile_of(t, options, fast_tl, diag);
  const RunProfile seed =
      reference::build_profile_seed(t, seed_tl, names, diag, options);
  expect_profiles_equal(fast, seed);
}

TEST(GoldenPipeline, EndToEndThroughV2RoundTrip) {
  // Producer side: sort + serialise with the fast path; parser side:
  // deserialise, rebuild, and compare the final profile against the
  // all-seed pipeline fed the same original trace.
  Trace produced = golden_trace();
  produced.sort_by_time();
  std::stringstream buffer;
  ASSERT_TRUE(write_trace(buffer, produced));
  auto loaded = read_trace(buffer.str());
  ASSERT_TRUE(loaded.is_ok()) << loaded.message();
  Trace fast_t = std::move(loaded).value();
  fast_t.sort_by_time();
  TimelineDiagnostics fast_diag;
  const TimelineMap fast_tl = build_timeline(fast_t, &fast_diag);
  const RunProfile fast = profile_of(fast_t, {}, fast_tl, fast_diag);

  Trace seed_t = golden_trace();
  reference::sort_by_time_seed(&seed_t);
  TimelineDiagnostics seed_diag;
  const reference::SeedTimeline seed_tl =
      reference::build_timeline_seed(seed_t, &seed_diag);
  const RunProfile seed = reference::build_profile_seed(
      seed_t, seed_tl, golden_names(), seed_diag, {});
  expect_profiles_equal(fast, seed);
}

enum class Feed { kSamplesFirst, kEventsFirst, kInterleaved };

const char* feed_name(Feed order) {
  switch (order) {
    case Feed::kSamplesFirst: return "samples first";
    case Feed::kEventsFirst: return "events first";
    case Feed::kInterleaved: return "interleaved";
  }
  return "?";
}

/// Feed a sorted trace's records to a fold in small batches of uneven,
/// cycling sizes, so batch boundaries land everywhere. Interleaved hands
/// over whichever stream is behind in time, as a live source would.
void feed(const Trace& t, Feed order,
          const std::function<void(const FnEvent*, std::size_t)>& add_events,
          const std::function<void(const TempSample*, std::size_t)>& add_samples) {
  constexpr std::size_t kSizes[] = {3, 1, 2};
  std::size_t turn = 0, e = 0, s = 0;
  const std::size_t ne = t.fn_events.size(), ns = t.temp_samples.size();
  const auto events = [&] {
    const std::size_t n = std::min(kSizes[turn++ % 3], ne - e);
    add_events(t.fn_events.data() + e, n);
    e += n;
  };
  const auto samples = [&] {
    const std::size_t n = std::min(kSizes[turn++ % 3], ns - s);
    add_samples(t.temp_samples.data() + s, n);
    s += n;
  };
  switch (order) {
    case Feed::kSamplesFirst:
      while (s < ns) samples();
      while (e < ne) events();
      break;
    case Feed::kEventsFirst:
      while (e < ne) events();
      while (s < ns) samples();
      break;
    case Feed::kInterleaved:
      while (e < ne || s < ns) {
        if (s < ns && (e == ne || t.temp_samples[s].tsc <= t.fn_events[e].tsc)) {
          samples();
        } else {
          events();
        }
      }
      break;
  }
}

TEST(GoldenPipeline, StreamingFoldMatchesSeedOracle) {
  // The streaming pipeline's consumer core, fed the sorted golden trace
  // in deliberately small, uneven batches, samples ahead of events (the
  // order every Source emits), serially and over 4 shards, must
  // reproduce the seed pipeline's profile exactly. The seed gets hex
  // names because the fold's symboliser falls back to hex when the
  // recorded executable ("golden", which doesn't exist) has no symtab.
  Trace t = golden_trace();
  t.sort_by_time();
  TimelineDiagnostics seed_diag;
  const reference::SeedTimeline seed_tl = reference::build_timeline_seed(t, &seed_diag);
  const std::vector<std::pair<std::uint64_t, std::string>> hex_names = {
      {kFnA, "0x1000"}, {kFnB, "0x2000"}, {kFnC, "0x3000"}, {kFnD, "0x4000"}};
  const RunProfile seed =
      reference::build_profile_seed(t, seed_tl, hex_names, seed_diag, {});

  for (const unsigned shards : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(shards) + " shard(s)");
    tempest::pipeline::AnalysisOptions options;
    options.threads = shards;
    tempest::pipeline::AnalysisPipeline fold(options);
    fold.set_metadata(t);
    feed(
        t, Feed::kSamplesFirst,
        [&fold](const FnEvent* e, std::size_t n) { fold.add_fn_events(e, n); },
        [&fold](const TempSample* s, std::size_t n) {
          ASSERT_TRUE(fold.add_temp_samples(s, n));
        });
    expect_profiles_equal(fold.finish().profile, seed);
  }
}

constexpr std::uint64_t kFnR = 0x5000;   // recursion 200 deep
constexpr std::uint64_t kFnX = 0x6000;   // leaf at the bottom of that recursion
constexpr std::uint64_t kFnU = 0x8000;   // exits with no open enter
constexpr std::uint64_t kFnK = 0x9000;   // on threads missing from the metadata
constexpr std::uint64_t kFnZ = 0xA000;   // left open at trace end
constexpr std::uint64_t kFnA2 = 0xB000;  // ill-nested with kFnC2
constexpr std::uint64_t kFnC2 = 0xC000;
constexpr std::size_t kDeepRecursion = 200;
constexpr std::uint64_t kFnW = 0x20000;  // first of kWide functions, 0x10 apart
constexpr std::uint64_t kWide = 64;

/// The fold's edge cases in one sorted trace: a function recursing 200
/// deep with a leaf at the bottom, exits that match no open enter, the
/// same function open on two threads of one node, an ill-nested pair,
/// activations left open at the end, two threads the metadata never lists (one
/// inside the dense thread-id window, one outside it), and listed
/// threads entering functions whose ids lie far past their own slot
/// count, so their slots start in the pair table and move into the
/// thread's index while open.
Trace edge_trace() {
  Trace t;
  t.tsc_ticks_per_second = 1e9;
  t.executable = "edge";
  t.nodes = {{0, "n0"}, {1, "n1"}};
  t.sensors = {{0, 0, "cpu0", 1.0}, {1, 0, "cpu1", 1.0}};
  t.threads = {{0, 0, 0}, {1, 0, 1}, {2, 1, 0}, {5, 1, 1}};
  const auto at = [&t](std::uint64_t tsc, std::uint64_t addr, std::uint32_t tid,
                       std::uint16_t node, FnEventKind kind) {
    t.fn_events.push_back({tsc, addr, tid, node, kind});
  };
  constexpr auto kIn = FnEventKind::kEnter;
  constexpr auto kOut = FnEventKind::kExit;

  // t0 (node 0): R recurses 200 deep, X runs at the bottom, R unwinds;
  // then B, an exit of U (entered only on t1), a surplus exit of R, and
  // Z left open.
  for (std::size_t i = 0; i < kDeepRecursion; ++i) at(100 + i, kFnR, 0, 0, kIn);
  at(300, kFnX, 0, 0, kIn);
  at(310, kFnX, 0, 0, kOut);
  for (std::size_t i = 0; i < kDeepRecursion; ++i) at(400 + i, kFnR, 0, 0, kOut);
  at(610, kFnB, 0, 0, kIn);
  at(900, kFnB, 0, 0, kOut);
  at(950, kFnU, 0, 0, kOut);
  at(960, kFnR, 0, 0, kOut);
  at(980, kFnZ, 0, 0, kIn);
  // t1 (node 0): B overlapping t0's, U with a surplus exit, and A2/C2
  // closed out of order.
  at(700, kFnB, 1, 0, kIn);
  at(1000, kFnB, 1, 0, kOut);
  at(1010, kFnU, 1, 0, kIn);
  at(1020, kFnU, 1, 0, kOut);
  at(1030, kFnU, 1, 0, kOut);
  at(1040, kFnA2, 1, 0, kIn);
  at(1050, kFnC2, 1, 0, kIn);
  at(1060, kFnA2, 1, 0, kOut);
  at(1070, kFnC2, 1, 0, kOut);
  at(1080, kFnA2, 1, 0, kOut);
  // t2 and t5 (node 1): R and B on another node, K on a listed thread.
  at(150, kFnR, 2, 1, kIn);
  at(450, kFnR, 2, 1, kOut);
  at(460, kFnB, 2, 1, kIn);
  at(470, kFnB, 2, 1, kOut);
  at(200, kFnK, 5, 1, kIn);
  at(300, kFnK, 5, 1, kOut);
  // Unlisted t4 (inside the dense window) and t77 (outside it): K
  // recursing, Z left open, B, and an exit with no enter.
  at(210, kFnK, 4, 1, kIn);
  at(220, kFnK, 4, 1, kIn);
  at(230, kFnK, 4, 1, kOut);
  at(700, kFnK, 4, 1, kOut);
  at(710, kFnZ, 4, 1, kIn);
  at(520, kFnB, 77, 0, kIn);
  at(530, kFnB, 77, 0, kOut);
  at(540, kFnK, 77, 0, kOut);
  // t2 interns W0..W63. t5 then opens W63 while it owns one slot,
  // opens W0..W62 inside it, re-enters W63 (recursion across the move)
  // and closes everything first-in first-out; t1, with only its four
  // slots, opens W63 and W62 and closes them in the same order.
  const auto w = [](std::uint64_t i) { return kFnW + 0x10 * i; };
  for (std::uint64_t i = 0; i < kWide; ++i) {
    at(1100 + 2 * i, w(i), 2, 1, kIn);
    at(1101 + 2 * i, w(i), 2, 1, kOut);
  }
  at(1300, w(kWide - 1), 5, 1, kIn);
  for (std::uint64_t i = 0; i + 1 < kWide; ++i) at(1301 + i, w(i), 5, 1, kIn);
  at(1400, w(kWide - 1), 5, 1, kIn);
  at(1401, w(kWide - 1), 5, 1, kOut);
  at(1402, w(kWide - 1), 5, 1, kOut);
  for (std::uint64_t i = 0; i + 1 < kWide; ++i) at(1403 + i, w(i), 5, 1, kOut);
  at(1500, w(kWide - 1), 1, 0, kIn);
  at(1505, w(kWide - 2), 1, 0, kIn);
  at(1510, w(kWide - 1), 1, 0, kOut);
  at(1515, w(kWide - 2), 1, 0, kOut);

  for (std::uint64_t tsc = 90; tsc < 1600; tsc += 37) t.temp_samples.push_back({tsc, 40.0, 0, 0});
  for (std::uint64_t tsc = 100; tsc < 1600; tsc += 53) t.temp_samples.push_back({tsc, 50.0, 1, 0});
  t.sort_by_time();
  return t;
}

/// Every field of two timeline maps, spans and sample ranges included.
void expect_same_timeline(const TimelineMap& got, const TimelineMap& want) {
  ASSERT_EQ(got.size(), want.size());
  auto w = want.begin();
  for (auto g = got.begin(); g != got.end(); ++g, ++w) {
    SCOPED_TRACE("(" + std::to_string(w->first.first) + ", " +
                 std::to_string(w->first.second) + ")");
    ASSERT_EQ(g->first, w->first);
    const FunctionActivity& a = g->second;
    const FunctionActivity& b = w->second;
    EXPECT_EQ(a.addr, b.addr);
    EXPECT_EQ(a.node_id, b.node_id);
    EXPECT_EQ(a.total_ticks, b.total_ticks);
    EXPECT_EQ(a.calls, b.calls);
    EXPECT_EQ(a.activations, b.activations);
    EXPECT_TRUE(a.ticks_sq == b.ticks_sq);
    EXPECT_EQ(a.first_begin, b.first_begin);
    EXPECT_EQ(a.last_end, b.last_end);
    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (std::size_t i = 0; i < b.samples.size(); ++i) {
      EXPECT_EQ(a.samples[i].first, b.samples[i].first);
      EXPECT_EQ(a.samples[i].last, b.samples[i].last);
    }
    ASSERT_EQ(a.spans.size(), b.spans.size());
    for (std::size_t i = 0; i < b.spans.size(); ++i) {
      EXPECT_EQ(a.spans[i].begin, b.spans[i].begin);
      EXPECT_EQ(a.spans[i].end, b.spans[i].end);
    }
  }
}

TEST(GoldenPipeline, FoldEdgeCasesMatchSeedOracle) {
  // The golden and edge-case traces through the fold: a one-batch serial
  // pass keeping every span must match the seed's interval unions, and
  // a samples-first feed in small, uneven batches at 1 and 4 shards,
  // keeping spans for one function only, must reproduce the serial map
  // field for field — ranges, spans, ticks_sq and diagnostics.
  for (const bool edge : {false, true}) {
    SCOPED_TRACE(edge ? "edge trace" : "golden trace");
    Trace t = edge ? edge_trace() : golden_trace();
    t.sort_by_time();
    TimelineDiagnostics seed_diag;
    const reference::SeedTimeline seed = reference::build_timeline_seed(t, &seed_diag);

    TimelineDiagnostics all_diag;
    const TimelineMap all_spans =
        build_timeline(t, &all_diag, [](std::uint64_t) { return true; });
    expect_timelines_equal(t, all_spans, seed);
    EXPECT_EQ(all_diag.unmatched_exits, seed_diag.unmatched_exits);
    EXPECT_EQ(all_diag.force_closed, seed_diag.force_closed);

    const std::uint64_t span_fn = edge ? kFnR : kFnA;
    const SpanFilter one_span = [span_fn](std::uint64_t addr) { return addr == span_fn; };
    TimelineDiagnostics want_diag;
    const TimelineMap want = build_timeline(t, &want_diag, one_span);
    for (const auto& [key, fa] : want) {
      EXPECT_EQ(fa.spans.empty(), fa.addr != span_fn);
    }
    if (edge) {
      // The 200-deep recursion collapses into one activation per node.
      const FunctionActivity& r = want.at({0, kFnR});
      EXPECT_EQ(r.calls, kDeepRecursion);
      EXPECT_EQ(r.activations, 1u);
      EXPECT_EQ(r.total_ticks, 499u);
      EXPECT_TRUE(r.ticks_sq == 499u * 499u);
      EXPECT_EQ(want.at({0, kFnX}).activations, 1u);
      // t5's two W63 enters collapse into one activation.
      const FunctionActivity& w63 = want.at({1, kFnW + 0x10 * (kWide - 1)});
      EXPECT_EQ(w63.calls, 3u);
      EXPECT_EQ(w63.activations, 2u);
      EXPECT_EQ(w63.total_ticks, 1u + 102u);
      EXPECT_EQ(want_diag.unmatched_exits, 5u);
      EXPECT_EQ(want_diag.force_closed, 2u);
    }

    for (const unsigned shards : {1u, 4u}) {
      SCOPED_TRACE(std::to_string(shards) + " shard(s)");
      ShardedTimelineAccumulator fold(t.threads, 0, shards, one_span);
      feed(
          t, Feed::kSamplesFirst,
          [&fold](const FnEvent* e, std::size_t n) { fold.add_events(e, n); },
          [&fold](const TempSample* s, std::size_t n) { fold.add_samples(s, n); });
      TimelineDiagnostics diag;
      expect_same_timeline(fold.finish(t.end_tsc(), &diag), want);
      EXPECT_EQ(diag.unmatched_exits, want_diag.unmatched_exits);
      EXPECT_EQ(diag.force_closed, want_diag.force_closed);
    }
  }
}

TEST(GoldenPipeline, CallsAndTimeFoldMatchesFullFold) {
  // The collector folds calls and time only. Given the events alone, the
  // timeline at 1 and 4 shards must give the sampled fold's calls,
  // ticks, activations, ticks_sq, bounds and diagnostics, crediting no
  // sample. AnalysisPipeline with `thermal` off still lets samples widen
  // the run's bounds, in every feed order, so the edge trace's
  // activations left open close where the sampled fold closes them: its
  // last sample (1590) comes after its last event (1515).
  Trace t = edge_trace();
  t.sort_by_time();
  ASSERT_GT(t.temp_samples.back().tsc, t.fn_events.back().tsc);
  TimelineDiagnostics want_diag;
  const TimelineMap want = build_timeline(t, &want_diag);
  const RunProfile want_profile = tempest::pipeline::analyze_trace(t).value().profile;

  for (const Feed order : {Feed::kSamplesFirst, Feed::kEventsFirst, Feed::kInterleaved}) {
    for (const unsigned shards : {1u, 4u}) {
      SCOPED_TRACE(std::string(feed_name(order)) + ", " + std::to_string(shards) +
                   " shard(s)");
      ShardedTimelineAccumulator fold(t.threads, 0, shards);
      feed(
          t, order,
          [&fold](const FnEvent* e, std::size_t n) { fold.add_events(e, n); },
          [](const TempSample*, std::size_t) {});
      TimelineDiagnostics diag;
      const TimelineMap got = fold.finish(t.end_tsc(), &diag);
      EXPECT_EQ(diag.unmatched_exits, want_diag.unmatched_exits);
      EXPECT_EQ(diag.force_closed, want_diag.force_closed);
      ASSERT_EQ(got.size(), want.size());
      for (auto g = got.begin(), w = want.begin(); w != want.end(); ++g, ++w) {
        ASSERT_EQ(g->first, w->first);
        const FunctionActivity& a = g->second;
        const FunctionActivity& b = w->second;
        EXPECT_EQ(a.calls, b.calls) << b.addr;
        EXPECT_EQ(a.total_ticks, b.total_ticks) << b.addr;
        EXPECT_EQ(a.activations, b.activations) << b.addr;
        EXPECT_TRUE(a.ticks_sq == b.ticks_sq) << b.addr;
        EXPECT_EQ(a.first_begin, b.first_begin) << b.addr;
        EXPECT_EQ(a.last_end, b.last_end) << b.addr;
        EXPECT_TRUE(a.samples.empty()) << b.addr;
      }

      tempest::pipeline::AnalysisOptions options;
      options.threads = shards;
      options.thermal = false;
      tempest::pipeline::AnalysisPipeline pipeline(options);
      pipeline.set_metadata(t);
      feed(
          t, order,
          [&pipeline](const FnEvent* e, std::size_t n) { pipeline.add_fn_events(e, n); },
          [&pipeline](const TempSample* s, std::size_t n) {
            EXPECT_TRUE(pipeline.add_temp_samples(s, n));
          });
      const RunProfile got_profile = pipeline.finish().profile;
      EXPECT_EQ(got_profile.duration_s, want_profile.duration_s);
      EXPECT_EQ(got_profile.diagnostics.unmatched_exits,
                want_profile.diagnostics.unmatched_exits);
      EXPECT_EQ(got_profile.diagnostics.force_closed, want_profile.diagnostics.force_closed);
      ASSERT_EQ(got_profile.nodes.size(), want_profile.nodes.size());
      for (std::size_t n = 0; n < want_profile.nodes.size(); ++n) {
        const auto& gf = got_profile.nodes[n].functions;
        const auto& wf = want_profile.nodes[n].functions;
        ASSERT_EQ(gf.size(), wf.size());
        for (std::size_t f = 0; f < wf.size(); ++f) {
          EXPECT_EQ(gf[f].name, wf[f].name);
          EXPECT_EQ(gf[f].calls, wf[f].calls) << wf[f].name;
          EXPECT_EQ(gf[f].total_time_s, wf[f].total_time_s) << wf[f].name;
          EXPECT_EQ(gf[f].time.count, wf[f].time.count) << wf[f].name;
          EXPECT_EQ(gf[f].time.mean_s, wf[f].time.mean_s) << wf[f].name;
          EXPECT_EQ(gf[f].time.var_s2, wf[f].time.var_s2) << wf[f].name;
          EXPECT_TRUE(gf[f].sensors.empty()) << wf[f].name;
        }
      }
    }
  }
}

constexpr std::uint64_t kRegionA = kSyntheticAddrBase + 1;
constexpr std::uint64_t kRegionB = kSyntheticAddrBase + 2;

/// One node, two threads, 40 samples and no clock syncs: a single clock
/// domain written out of time order. With `exit_first`, thread 0's exit
/// is written before its enter; otherwise each thread stays in order
/// but the threads take turns, thread 0's events all ahead of thread 1's.
Trace syncless_trace(bool exit_first) {
  Trace t;
  t.tsc_ticks_per_second = 1e6;
  t.nodes = {{0, "host"}};
  t.sensors = {{0, 0, "cpu", 1.0}};
  t.threads = {{0, 0, 0}, {1, 0, 1}};
  t.synthetic_symbols = {{kRegionA, "region_a"}, {kRegionB, "region_b"}};
  if (exit_first) {
    t.fn_events = {{100, kRegionB, 1, 0, FnEventKind::kEnter},
                   {300, kRegionA, 0, 0, FnEventKind::kExit},
                   {200, kRegionA, 0, 0, FnEventKind::kEnter},
                   {400, kRegionB, 1, 0, FnEventKind::kExit},
                   {500, kRegionA, 0, 0, FnEventKind::kEnter},
                   {700, kRegionA, 0, 0, FnEventKind::kExit},
                   {600, kRegionB, 1, 0, FnEventKind::kEnter},
                   {900, kRegionB, 1, 0, FnEventKind::kExit}};
  } else {
    t.fn_events = {{100, kRegionA, 0, 0, FnEventKind::kEnter},
                   {300, kRegionA, 0, 0, FnEventKind::kExit},
                   {500, kRegionA, 0, 0, FnEventKind::kEnter},
                   {700, kRegionA, 0, 0, FnEventKind::kExit},
                   {50, kRegionB, 1, 0, FnEventKind::kEnter},
                   {450, kRegionB, 1, 0, FnEventKind::kExit},
                   {550, kRegionB, 1, 0, FnEventKind::kEnter},
                   {950, kRegionB, 1, 0, FnEventKind::kExit}};
  }
  for (std::uint64_t i = 0; i < 40; ++i) {
    t.temp_samples.push_back({i * 25, 40.0 + static_cast<double>(i % 7), 0, 0});
  }
  return t;
}

TEST(GoldenPipeline, SynclessTraceOrdersByRecordedTscInEveryMode) {
  // Without syncs there is one clock domain. With alignment on (the
  // default) and off, the in-memory entry point and a file streamed as
  // tempest_parse streams it must both order records by their recorded
  // tsc: the seed pipeline's profile of the stable-sorted trace, with
  // no unmatched exit.
  const std::vector<std::pair<std::uint64_t, std::string>> names = {
      {kRegionA, "region_a"}, {kRegionB, "region_b"}};
  for (const bool exit_first : {true, false}) {
    SCOPED_TRACE(exit_first ? "exit written first" : "threads take turns");
    const Trace t = syncless_trace(exit_first);
    Trace sorted = t;
    reference::sort_by_time_seed(&sorted);
    TimelineDiagnostics seed_diag;
    const reference::SeedTimeline seed_tl =
        reference::build_timeline_seed(sorted, &seed_diag);
    const RunProfile seed =
        reference::build_profile_seed(sorted, seed_tl, names, seed_diag, {});
    EXPECT_EQ(seed.diagnostics.unmatched_exits, 0u);

    const std::string path = ::testing::TempDir() + "/syncless.trace";
    ASSERT_TRUE(write_trace_file(path, t));
    for (const bool align : {true, false}) {
      SCOPED_TRACE(align ? "aligned" : "--no-align");
      ParseOptions options;
      options.align_clocks = align;
      auto in_memory = parse_trace(t, options);
      ASSERT_TRUE(in_memory.is_ok()) << in_memory.message();
      expect_profiles_equal(in_memory.value(), seed);
      tempest::pipeline::TraceInput from_file;
      ASSERT_TRUE(from_file.open({path}, align));
      tempest::pipeline::AnalysisSink sink;
      ASSERT_TRUE(from_file.run({&sink}));
      expect_profiles_equal(sink.result().profile, seed);
    }
  }
}

TEST(GoldenPipeline, FindLocatesEveryFunctionLikeLinearScan) {
  Trace t = golden_trace();
  t.sort_by_time();
  TimelineDiagnostics diag;
  const TimelineMap tl = build_timeline(t, &diag);
  const RunProfile profile = profile_of(t, {}, tl, diag);
  for (const auto& node : profile.nodes) {
    for (const auto& fn : node.functions) {
      const FunctionProfile* hit = profile.find(node.node_id, fn.name);
      ASSERT_NE(hit, nullptr) << fn.name;
      EXPECT_EQ(hit->addr, fn.addr);
    }
  }
  EXPECT_EQ(profile.find(0, "no_such_fn"), nullptr);
  EXPECT_EQ(profile.find(77, "alpha_fn"), nullptr);
}

TEST(GoldenPipeline, SeedV1TraceRejectedByV2Reader) {
  Trace t = golden_trace();
  std::stringstream buffer;
  ASSERT_TRUE(reference::write_trace_seed(buffer, t));
  auto loaded = read_trace(buffer.str());
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_NE(loaded.message().find("version"), std::string::npos) << loaded.message();
  // And the seed reader still accepts its own format.
  std::stringstream again;
  ASSERT_TRUE(reference::write_trace_seed(again, t));
  EXPECT_TRUE(reference::read_trace_seed(again).is_ok());
}

}  // namespace
