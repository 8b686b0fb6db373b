// tempest-diff: Welch significance math against closed-form references,
// profile alignment (pooled and per-node, address fallback, FLTR
// tolerance), seeded-regression ranking, trend JSONL, and the Sdv/Var
// propagation chain the diff depends on (exact-integer timeline sums →
// streaming/sharded/batch equality → multi-rank append fold → RUNSTATS
// byte-for-byte round trip).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "diff/diff.hpp"
#include "diff/trend.hpp"
#include "parser/parse.hpp"
#include "pipeline/analysis.hpp"
#include "pipeline/rank_fanin.hpp"
#include "pipeline/sinks.hpp"
#include "pipeline/stage.hpp"
#include "trace/reader.hpp"
#include "trace/trace.hpp"
#include "trace/writer.hpp"

namespace {

using namespace tempest;
using namespace tempest::trace;
namespace diff = tempest::diff;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// One function's worth of sequential activations with the given tick
/// durations.
struct FnSpec {
  std::string name;
  std::vector<std::uint64_t> durations;
};

/// Synthetic single-node trace: each function's activations run back to
/// back with a 100-tick gap, functions laid out one after another, so
/// every duration is exactly what the timeline will reconstruct.
Trace make_run(const std::vector<FnSpec>& fns, std::uint16_t node_id = 0) {
  Trace t;
  t.tsc_ticks_per_second = 1e9;
  t.executable = "diff_app";  // nonexistent: synthetic names resolve
  t.nodes = {{node_id, "host" + std::to_string(node_id)}};
  t.sensors = {{node_id, 0, "cpu", 0.0}};
  t.threads = {{node_id, node_id, 0}};

  std::uint64_t cursor = 1000;
  for (std::size_t i = 0; i < fns.size(); ++i) {
    const std::uint64_t addr = kSyntheticAddrBase + 1 + i;
    t.synthetic_symbols.push_back({addr, fns[i].name});
    for (const std::uint64_t d : fns[i].durations) {
      t.fn_events.push_back({cursor, addr, node_id, node_id, FnEventKind::kEnter});
      t.fn_events.push_back(
          {cursor + d, addr, node_id, node_id, FnEventKind::kExit});
      cursor += d + 100;
    }
  }
  t.temp_samples.push_back({1500, 42.0, node_id, 0});
  t.sort_by_time();

  t.run_stats.present = true;
  t.run_stats.events_recorded = t.fn_events.size();
  t.run_stats.calls_observed = t.fn_events.size();
  t.run_stats.tempd_samples = t.temp_samples.size();
  t.run_stats.threads_registered = 1;
  t.run_stats.wall_seconds = 0.5;
  return t;
}

diff::RunSummary summarize(Trace t, const std::string& label) {
  diff::RunSummary s;
  s.source = label;
  s.run_stats = t.run_stats;
  s.filter = t.filter;
  auto parsed = parser::parse_trace(std::move(t));
  EXPECT_TRUE(parsed.is_ok()) << parsed.message();
  s.profile = std::move(parsed).value();
  return s;
}

/// Hand-built profile entry for alignment tests that need exact control
/// over the pooled statistics.
parser::FunctionProfile fn_profile(const std::string& name, std::uint64_t calls,
                                   double total_s, std::uint64_t count,
                                   double mean_s, double var_s2,
                                   std::uint64_t addr = 0x1000) {
  parser::FunctionProfile fn;
  fn.addr = addr;
  fn.name = name;
  fn.calls = calls;
  fn.total_time_s = total_s;
  fn.time.count = count;
  fn.time.mean_s = mean_s;
  fn.time.var_s2 = var_s2;
  fn.time.sdv_s = std::sqrt(var_s2);
  return fn;
}

diff::RunSummary summary_of(std::vector<parser::NodeProfile> nodes,
                            const std::string& label) {
  diff::RunSummary s;
  s.source = label;
  s.profile.nodes = std::move(nodes);
  return s;
}

const parser::FunctionProfile* find_fn(const parser::RunProfile& profile,
                                       std::uint16_t node,
                                       const std::string& name) {
  return profile.find(node, name);
}

// -- significance math -------------------------------------------------

TEST(Welch, RegIncompleteBetaIdentities) {
  // I_x(1,1) = x.
  for (const double x : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(diff::reg_incomplete_beta(1.0, 1.0, x), x, 1e-12);
  }
  // I_x(2,2) = 3x^2 - 2x^3.
  EXPECT_NEAR(diff::reg_incomplete_beta(2.0, 2.0, 0.25), 0.15625, 1e-12);
  // Reflection: I_x(a,b) = 1 - I_{1-x}(b,a).
  EXPECT_NEAR(diff::reg_incomplete_beta(2.5, 1.5, 0.3),
              1.0 - diff::reg_incomplete_beta(1.5, 2.5, 0.7), 1e-12);
  // Arcsine law: I_x(1/2,1/2) = (2/pi) asin(sqrt(x)).
  EXPECT_NEAR(diff::reg_incomplete_beta(0.5, 0.5, 0.3),
              2.0 / M_PI * std::asin(std::sqrt(0.3)), 1e-10);
  // Bounds clamp.
  EXPECT_EQ(diff::reg_incomplete_beta(2.0, 3.0, 0.0), 0.0);
  EXPECT_EQ(diff::reg_incomplete_beta(2.0, 3.0, 1.0), 1.0);
}

TEST(Welch, ClosedFormTwoByTwo) {
  // Two samples per side with population variance 1 (samples ±1 around
  // the mean): sample variance 2, t = d/sqrt(2), Welch dof = 2, and the
  // dof-2 Student CDF has the closed form p = 1 - t/sqrt(t^2+2).
  const diff::WelchResult r = diff::welch_compare(0.0, 1.0, 2.0, 2.0, 1.0, 2.0);
  ASSERT_TRUE(r.computable);
  EXPECT_NEAR(r.t, std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(r.dof, 2.0, 1e-12);
  const double expected_p = 1.0 - std::sqrt(2.0) / 2.0;
  EXPECT_NEAR(r.confidence, 1.0 - expected_p, 1e-9);
}

TEST(Welch, NotComputableBelowTwoSamples) {
  EXPECT_FALSE(diff::welch_compare(1.0, 0.5, 1.0, 2.0, 0.5, 100.0).computable);
  EXPECT_FALSE(diff::welch_compare(1.0, 0.5, 100.0, 2.0, 0.5, 1.0).computable);
  EXPECT_FALSE(diff::welch_compare(1.0, 0.5, 0.0, 2.0, 0.5, 0.0).computable);
  EXPECT_EQ(diff::welch_compare(1.0, 0.5, 1.0, 2.0, 0.5, 100.0).confidence, 0.0);
}

TEST(Welch, ZeroSpreadIsDeterministic) {
  // Identical constants: no evidence of change.
  const diff::WelchResult same = diff::welch_compare(3.0, 0.0, 5.0, 3.0, 0.0, 5.0);
  EXPECT_TRUE(same.computable);
  EXPECT_EQ(same.confidence, 0.0);
  // Differing constants: the change is exact, confidence 1.
  const diff::WelchResult moved = diff::welch_compare(3.0, 0.0, 5.0, 4.0, 0.0, 5.0);
  EXPECT_TRUE(moved.computable);
  EXPECT_EQ(moved.confidence, 1.0);
  EXPECT_TRUE(std::isinf(moved.t));
  EXPECT_GT(moved.t, 0.0);
}

TEST(Welch, SymmetricUnderSideSwap) {
  const diff::WelchResult ab =
      diff::welch_compare(10.0, 4.0, 30.0, 12.0, 9.0, 40.0);
  const diff::WelchResult ba =
      diff::welch_compare(12.0, 9.0, 40.0, 10.0, 4.0, 30.0);
  ASSERT_TRUE(ab.computable);
  EXPECT_NEAR(ab.t, -ba.t, 1e-12);
  EXPECT_NEAR(ab.dof, ba.dof, 1e-12);
  EXPECT_NEAR(ab.confidence, ba.confidence, 1e-12);
  EXPECT_GT(ab.confidence, 0.9);  // clearly separated means
}

// -- Sdv/Var propagation ----------------------------------------------

TEST(TimeStats, ExactFromTimeline) {
  // Durations 1000 and 3000 ticks at 1e9 ticks/s: mean 2 us, population
  // variance (1 us)^2. Plus a recursive pattern: calls counts both
  // enters, activations only the closed outermost interval.
  Trace t = make_run({{"steady", {1000, 3000}}});
  const std::uint64_t rec = kSyntheticAddrBase + 900;
  t.synthetic_symbols.push_back({rec, "recursive"});
  const std::uint64_t base = t.end_tsc() + 1000;
  t.fn_events.push_back({base, rec, 0, 0, FnEventKind::kEnter});
  t.fn_events.push_back({base + 100, rec, 0, 0, FnEventKind::kEnter});
  t.fn_events.push_back({base + 200, rec, 0, 0, FnEventKind::kExit});
  t.fn_events.push_back({base + 500, rec, 0, 0, FnEventKind::kExit});
  t.sort_by_time();

  auto parsed = parser::parse_trace(t);
  ASSERT_TRUE(parsed.is_ok()) << parsed.message();
  const parser::RunProfile& profile = parsed.value();

  const parser::FunctionProfile* steady = find_fn(profile, 0, "steady");
  ASSERT_NE(steady, nullptr);
  EXPECT_EQ(steady->calls, 2u);
  EXPECT_EQ(steady->time.count, 2u);
  EXPECT_NEAR(steady->time.mean_s, 2e-6, 1e-18);
  EXPECT_NEAR(steady->time.var_s2, 1e-12, 1e-24);
  EXPECT_NEAR(steady->time.sdv_s, 1e-6, 1e-18);

  const parser::FunctionProfile* recursive = find_fn(profile, 0, "recursive");
  ASSERT_NE(recursive, nullptr);
  EXPECT_EQ(recursive->calls, 2u);
  EXPECT_EQ(recursive->time.count, 1u);  // one outermost activation
  EXPECT_NEAR(recursive->time.mean_s, 500e-9, 1e-18);
  EXPECT_EQ(recursive->time.var_s2, 0.0);
}

TEST(TimeStats, StreamingFoldMatchesBatchExactly) {
  // The CI byte-identity gates require the new stats to be identical —
  // not just close — between the batch wrapper and a streaming fold
  // that sees the events in arbitrary batch splits.
  const Trace t = make_run(
      {{"hot", {1000, 1200, 900, 1100, 1050, 950, 1000, 1300}},
       {"cold", {400, 600}}});
  auto batch = parser::parse_trace(t);
  ASSERT_TRUE(batch.is_ok()) << batch.message();

  for (const std::size_t split : {1u, 3u, 7u}) {
    pipeline::AnalysisPipeline fold(pipeline::AnalysisOptions{});
    fold.set_metadata(t);
    ASSERT_TRUE(fold.add_temp_samples(t.temp_samples.data(), t.temp_samples.size()));
    for (std::size_t i = 0; i < t.fn_events.size(); i += split) {
      const std::size_t n = std::min(split, t.fn_events.size() - i);
      fold.add_fn_events(t.fn_events.data() + i, n);
    }
    const pipeline::AnalysisResult streamed = fold.finish();

    for (const char* name : {"hot", "cold"}) {
      const parser::FunctionProfile* b = find_fn(batch.value(), 0, name);
      const parser::FunctionProfile* s = find_fn(streamed.profile, 0, name);
      ASSERT_NE(b, nullptr) << name;
      ASSERT_NE(s, nullptr) << name;
      EXPECT_EQ(s->time.count, b->time.count) << name;
      // Bit-identical, not approximately equal.
      EXPECT_EQ(s->time.mean_s, b->time.mean_s) << name;
      EXPECT_EQ(s->time.var_s2, b->time.var_s2) << name;
      EXPECT_EQ(s->time.sdv_s, b->time.sdv_s) << name;
    }
  }
}

TEST(TimeStats, ShardedFoldMatchesSingleThreadExactly) {
  const Trace t = make_run(
      {{"hot", {1000, 1200, 900, 1100, 1050, 950, 1000, 1300, 1010, 990}}});
  pipeline::AnalysisResult results[2];
  unsigned threads[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    pipeline::AnalysisOptions options;
    options.threads = threads[i];
    pipeline::AnalysisPipeline fold(options);
    fold.set_metadata(t);
    fold.add_fn_events(t.fn_events.data(), t.fn_events.size());
    results[i] = fold.finish();
  }
  const parser::FunctionProfile* one = find_fn(results[0].profile, 0, "hot");
  const parser::FunctionProfile* four = find_fn(results[1].profile, 0, "hot");
  ASSERT_NE(one, nullptr);
  ASSERT_NE(four, nullptr);
  EXPECT_EQ(four->time.count, one->time.count);
  EXPECT_EQ(four->time.mean_s, one->time.mean_s);
  EXPECT_EQ(four->time.var_s2, one->time.var_s2);
}

TEST(TimeStats, MultiRankAppendFoldPreservesPerNodeStats) {
  // Two ranks on distinct nodes fan in through RankFanIn; each node's
  // per-activation stats must equal its single-rank fold (the append
  // fold concatenates nodes, it must not blur their moments).
  const Trace r0 = make_run({{"shared", {1000, 1200, 900}}}, 0);
  const Trace r1 = make_run({{"shared", {2000, 2600}}}, 1);
  const std::string p0 = temp_path("rank0.trace");
  const std::string p1 = temp_path("rank1.trace");
  ASSERT_TRUE(write_trace_file(p0, r0));
  ASSERT_TRUE(write_trace_file(p1, r1));

  auto opened = pipeline::RankFanIn::open({p0, p1});
  ASSERT_TRUE(opened.is_ok()) << opened.message();
  auto fan = std::move(opened).value();
  pipeline::AnalysisSink sink;
  ASSERT_TRUE(pipeline::run_pipeline(&fan, {}, {&sink}));
  const parser::RunProfile& merged = sink.result().profile;

  auto single0 = parser::parse_trace(r0);
  auto single1 = parser::parse_trace(r1);
  ASSERT_TRUE(single0.is_ok() && single1.is_ok());
  const parser::FunctionProfile* m0 = find_fn(merged, 0, "shared");
  const parser::FunctionProfile* m1 = find_fn(merged, 1, "shared");
  const parser::FunctionProfile* s0 = find_fn(single0.value(), 0, "shared");
  const parser::FunctionProfile* s1 = find_fn(single1.value(), 1, "shared");
  ASSERT_NE(m0, nullptr);
  ASSERT_NE(m1, nullptr);
  ASSERT_NE(s0, nullptr);
  ASSERT_NE(s1, nullptr);
  EXPECT_EQ(m0->time.count, s0->time.count);
  EXPECT_EQ(m0->time.mean_s, s0->time.mean_s);
  EXPECT_EQ(m0->time.var_s2, s0->time.var_s2);
  EXPECT_EQ(m1->time.count, s1->time.count);
  EXPECT_EQ(m1->time.mean_s, s1->time.mean_s);
  EXPECT_EQ(m1->time.var_s2, s1->time.var_s2);
}

TEST(TimeStats, RunStatsRoundTripByteForByte) {
  // A trace whose RUNSTATS trailer has every field nonzero (and a FLTR
  // trailer) must re-serialise byte-for-byte after a read — the diff
  // trusts these trailers, so silent lossy round-trips would corrupt
  // the tolerance logic downstream.
  Trace t = make_run({{"fn", {1000, 2000}}});
  RunStats& rs = t.run_stats;
  rs.events_recorded = 11;
  rs.events_dropped = 2;
  rs.buffer_flushes = 3;
  rs.threads_registered = 4;
  rs.tempd_ticks = 5;
  rs.tempd_missed_ticks = 6;
  rs.tempd_samples = 7;
  rs.tempd_read_errors = 8;
  rs.sensor_read_failures = 9;
  rs.heartbeats = 10;
  rs.peak_rss_kb = 1234;
  rs.wall_seconds = 1.25;
  rs.tempd_cpu_seconds = 0.0625;
  rs.probe_cost_ns_mean = 17.5;
  rs.cadence_jitter_us_mean = 3.75;
  rs.events_suppressed = 12;
  rs.events_throttled = 13;
  rs.events_overwritten = 14;
  rs.calls_observed = 52;
  rs.ring_snapshots = 15;
  t.filter.present = true;
  t.filter.source = "demo.filter";
  t.filter.resolved = 2;
  t.filter.suppressed = {"suppressed_a", "suppressed_b"};

  const std::string first = temp_path("runstats_a.trace");
  const std::string second = temp_path("runstats_b.trace");
  ASSERT_TRUE(write_trace_file(first, t));
  auto back = read_trace_file(first);
  ASSERT_TRUE(back.is_ok()) << back.message();
  EXPECT_TRUE(back.value().run_stats.present);
  EXPECT_EQ(back.value().run_stats.calls_observed, 52u);
  EXPECT_EQ(back.value().filter.suppressed.size(), 2u);
  ASSERT_TRUE(write_trace_file(second, back.value()));
  const std::string a = slurp(first);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, slurp(second));
}

// -- alignment and ranking ---------------------------------------------

TEST(Diff, SelfDiffHasZeroSignificantDeltas) {
  const diff::RunSummary run =
      summarize(make_run({{"hot", {1000, 1200, 900, 1100}}, {"cold", {500}}}),
                "self");
  const diff::DiffResult result = diff::diff_runs(run, run, {});
  EXPECT_TRUE(result.regressions.empty());
  EXPECT_TRUE(result.improvements.empty());
  EXPECT_FALSE(result.insignificant.empty());
  for (const auto& d : result.insignificant) {
    EXPECT_EQ(d.status, diff::MatchStatus::kMatched);
    EXPECT_EQ(d.delta_time_s, 0.0);
    EXPECT_FALSE(d.significant);
  }
}

TEST(Diff, SeededRegressionRanksFirstAndGatesUnrankables) {
  // 100 activations of ~1 ms with ±10 us spread; the current run is 20%
  // slower. A one-shot wrapper ("phase") also slows down, but with one
  // activation it has no variance and must never rank — this is the
  // gate that keeps leaf culprits on top instead of main().
  std::vector<std::uint64_t> base_hot, cur_hot;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t jitter = (i % 2 == 0) ? 10000 : 0;
    base_hot.push_back(1000000 - 5000 + jitter);
    cur_hot.push_back(1200000 - 5000 + jitter);
  }
  const diff::RunSummary base = summarize(
      make_run({{"hot", base_hot}, {"phase", {5000000}}, {"steady", {700, 700}}}),
      "base");
  const diff::RunSummary cur = summarize(
      make_run({{"hot", cur_hot}, {"phase", {9000000}}, {"steady", {700, 700}}}),
      "cur");

  const diff::DiffResult result = diff::diff_runs(base, cur, {});
  ASSERT_EQ(result.regressions.size(), 1u);
  const diff::FunctionDelta& top = result.regressions[0];
  EXPECT_EQ(top.key, "hot");
  EXPECT_TRUE(top.significant);
  EXPECT_GE(top.confidence, 0.95);
  EXPECT_NEAR(top.delta_time_s, 0.02, 1e-6);  // 100 * 0.2 ms
  EXPECT_GT(top.t_stat, 10.0);

  // "phase" grew by 4 ms — more than "hot" — but is unrankable.
  bool phase_reported = false;
  for (const auto& d : result.insignificant) {
    if (d.key != "phase") continue;
    phase_reported = true;
    EXPECT_FALSE(d.significant);
    EXPECT_EQ(d.confidence, 0.0);  // one activation: no spread estimate
  }
  EXPECT_TRUE(phase_reported);
  EXPECT_TRUE(result.improvements.empty());
}

TEST(Diff, AppearVanishAndFilterTolerance) {
  const diff::RunSummary base = summarize(
      make_run({{"stays", {1000, 1000}}, {"vanishes", {2000}}}), "base");
  diff::RunSummary cur = summarize(
      make_run({{"stays", {1000, 1000}}, {"appears", {3000}}}), "cur");

  diff::DiffResult plain = diff::diff_runs(base, cur, {});
  EXPECT_EQ(plain.filtered_tolerated, 0u);
  ASSERT_EQ(plain.regressions.size(), 1u);  // the appearance
  EXPECT_EQ(plain.regressions[0].key, "appears");
  EXPECT_EQ(plain.regressions[0].status, diff::MatchStatus::kCurrentOnly);
  EXPECT_EQ(plain.regressions[0].confidence, 1.0);
  ASSERT_EQ(plain.improvements.size(), 1u);  // the disappearance
  EXPECT_EQ(plain.improvements[0].key, "vanishes");
  EXPECT_EQ(plain.improvements[0].status, diff::MatchStatus::kBaselineOnly);

  // Declare "vanishes" in the current run's FLTR trailer: the absence
  // is deliberate suppression, tolerated instead of ranked.
  cur.filter.present = true;
  cur.filter.suppressed = {"vanishes"};
  const diff::DiffResult tolerant = diff::diff_runs(base, cur, {});
  EXPECT_EQ(tolerant.filtered_tolerated, 1u);
  EXPECT_TRUE(tolerant.improvements.empty());
  bool found = false;
  for (const auto& d : tolerant.insignificant) {
    if (d.key != "vanishes") continue;
    found = true;
    EXPECT_EQ(d.status, diff::MatchStatus::kFilteredCurrent);
  }
  EXPECT_TRUE(found);
}

TEST(Diff, PoolsAcrossNodesWithChanCombine) {
  // Node 0: 2 activations mean 10 var 4; node 1: 3 activations mean 20
  // var 9. Pooled: n=5, mean 16, M2 = 2*4 + 3*9 + (10-20)^2*2*3/5 = 155.
  parser::NodeProfile n0, n1;
  n0.node_id = 0;
  n0.functions = {fn_profile("fn", 2, 20.0, 2, 10.0, 4.0)};
  n1.node_id = 1;
  n1.functions = {fn_profile("fn", 3, 60.0, 3, 20.0, 9.0)};
  const diff::RunSummary run = summary_of({n0, n1}, "pooled");

  const diff::DiffResult result = diff::diff_runs(run, run, {});
  ASSERT_EQ(result.insignificant.size(), 1u);
  const diff::FunctionSide& side = result.insignificant[0].base;
  EXPECT_EQ(side.calls, 5u);
  EXPECT_EQ(side.time.count, 5u);
  EXPECT_NEAR(side.time.mean_s, 16.0, 1e-12);
  EXPECT_NEAR(side.time.var_s2, 155.0 / 5.0, 1e-12);
}

TEST(Diff, PerNodeKeepsNodesApart) {
  parser::NodeProfile n0, n1;
  n0.node_id = 0;
  n0.functions = {fn_profile("fn", 2, 20.0, 2, 10.0, 4.0)};
  n1.node_id = 1;
  n1.functions = {fn_profile("fn", 3, 60.0, 3, 20.0, 9.0)};
  const diff::RunSummary run = summary_of({n0, n1}, "per_node");

  diff::DiffOptions options;
  options.per_node = true;
  const diff::DiffResult result = diff::diff_runs(run, run, options);
  ASSERT_EQ(result.insignificant.size(), 2u);
  EXPECT_EQ(result.insignificant[0].node_id, 0u);
  EXPECT_EQ(result.insignificant[0].base.time.count, 2u);
  EXPECT_EQ(result.insignificant[1].node_id, 1u);
  EXPECT_EQ(result.insignificant[1].base.time.count, 3u);
}

TEST(Diff, UnresolvedNamesFallBackToAddressKeys) {
  parser::NodeProfile node;
  node.node_id = 0;
  node.functions = {fn_profile("", 1, 1.0, 1, 1.0, 0.0, 0x2a),
                    fn_profile("<unknown>", 1, 2.0, 1, 2.0, 0.0, 0xdead)};
  const diff::RunSummary run = summary_of({node}, "fallback");
  const diff::DiffResult result = diff::diff_runs(run, run, {});
  ASSERT_EQ(result.insignificant.size(), 2u);
  EXPECT_EQ(result.insignificant[0].key, "@0x2a");
  EXPECT_EQ(result.insignificant[1].key, "@0xdead");
}

TEST(Diff, SensorShiftAloneCanRank) {
  // Identical timing, but the function now runs 8 degrees hotter with a
  // tight spread: thermal evidence alone must carry the ranking (the
  // paper's thesis is that temperature is a first-class signal).
  auto with_sensor = [](double avg) {
    parser::NodeProfile node;
    node.node_id = 0;
    parser::FunctionProfile fn = fn_profile("warm", 4, 8.0, 4, 2.0, 0.25);
    parser::SensorProfile sp;
    sp.sensor_id = 0;
    sp.name = "CPU";
    sp.sample_count = 50;
    sp.stats.avg = avg;
    sp.stats.sdv = 0.5;
    sp.stats.var = 0.25;
    fn.sensors.push_back(sp);
    node.functions = {fn};
    return node;
  };
  const diff::RunSummary base = summary_of({with_sensor(60.0)}, "base");
  const diff::RunSummary cur = summary_of({with_sensor(68.0)}, "cur");

  const diff::DiffResult result = diff::diff_runs(base, cur, {});
  ASSERT_EQ(result.regressions.size(), 1u);
  const diff::FunctionDelta& d = result.regressions[0];
  EXPECT_EQ(d.key, "warm");
  ASSERT_EQ(d.sensors.size(), 1u);
  EXPECT_TRUE(d.sensors[0].significant);
  EXPECT_NEAR(d.sensors[0].delta_avg, 8.0, 1e-12);
  EXPECT_GE(d.confidence, 0.95);
}

TEST(Diff, TimeEvidenceOutranksSensorOnlyAncestors) {
  // "ancestor" (think main): one activation, so no rankable time
  // evidence — but the run got hotter, so its sensor delta is
  // significant, and its inclusive time delta (2 s) dwarfs the leaf's
  // (0.5 s). "leaf" carries real per-activation evidence. The leaf
  // must rank first anyway: ordering is evidence before magnitude.
  auto build = [](double ancestor_total, double leaf_mean, double temp) {
    parser::NodeProfile node;
    node.node_id = 0;
    parser::FunctionProfile ancestor =
        fn_profile("ancestor", 1, ancestor_total, 1, ancestor_total, 0.0);
    parser::SensorProfile sp;
    sp.sensor_id = 0;
    sp.name = "CPU";
    sp.sample_count = 80;
    sp.stats.avg = temp;
    sp.stats.sdv = 0.5;
    sp.stats.var = 0.25;
    ancestor.sensors.push_back(sp);
    node.functions = {ancestor,
                      fn_profile("leaf", 100, leaf_mean * 100.0, 100, leaf_mean,
                                 leaf_mean * leaf_mean * 0.0025)};
    return node;
  };
  const diff::RunSummary base = summary_of({build(10.0, 0.01, 60.0)}, "base");
  const diff::RunSummary cur = summary_of({build(12.0, 0.015, 70.0)}, "cur");

  const diff::DiffResult result = diff::diff_runs(base, cur, {});
  ASSERT_EQ(result.regressions.size(), 2u);
  EXPECT_EQ(result.regressions[0].key, "leaf");
  EXPECT_TRUE(result.regressions[0].time_significant);
  EXPECT_EQ(result.regressions[1].key, "ancestor");
  EXPECT_FALSE(result.regressions[1].time_significant);
  EXPECT_GT(std::fabs(result.regressions[1].delta_time_s),
            std::fabs(result.regressions[0].delta_time_s));
}

TEST(Diff, JsonOutputCarriesSchemaAndRanking) {
  const diff::RunSummary base =
      summarize(make_run({{"only_base", {1000}}}), "a.trace");
  const diff::RunSummary cur =
      summarize(make_run({{"only_cur", {2000}}}), "b.trace");
  const diff::DiffResult result = diff::diff_runs(base, cur, {});
  std::ostringstream os;
  diff::write_diff_json(os, result);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"schema\":\"tempest-diff\""), std::string::npos);
  EXPECT_NE(out.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(out.find("\"baseline\":\"a.trace\""), std::string::npos);
  EXPECT_NE(out.find("\"status\":\"appeared\""), std::string::npos);
  EXPECT_NE(out.find("\"status\":\"vanished\""), std::string::npos);
  EXPECT_NE(out.find("\"base\":null"), std::string::npos);
}

TEST(Diff, LoadRunReadsTrailerMetadata) {
  Trace t = make_run({{"fn", {1000, 1500}}});
  t.filter.present = true;
  t.filter.suppressed = {"elsewhere"};
  const std::string path = temp_path("load_run.trace");
  ASSERT_TRUE(write_trace_file(path, t));

  auto loaded = diff::load_run(path, {});
  ASSERT_TRUE(loaded.is_ok()) << loaded.message();
  EXPECT_EQ(loaded.value().source, path);
  EXPECT_TRUE(loaded.value().run_stats.present);
  EXPECT_TRUE(loaded.value().filter.present);
  ASSERT_EQ(loaded.value().filter.suppressed.size(), 1u);
  EXPECT_NE(find_fn(loaded.value().profile, 0, "fn"), nullptr);

  EXPECT_FALSE(diff::load_run(temp_path("absent.trace"), {}).is_ok());
}

// -- trend mode --------------------------------------------------------

TEST(Trend, EmitsSchemaVersionedSeries) {
  const std::string p0 = temp_path("trend0.trace");
  const std::string p1 = temp_path("trend1.trace");
  const std::string p2 = temp_path("trend2.trace");
  ASSERT_TRUE(write_trace_file(p0, make_run({{"a", {1000, 1000}}, {"b", {500}}})));
  ASSERT_TRUE(write_trace_file(p1, make_run({{"a", {1200, 1200}}, {"b", {500}}})));
  ASSERT_TRUE(write_trace_file(p2, make_run({{"a", {1400, 1400}}, {"b", {500}}})));

  std::ostringstream os;
  ASSERT_TRUE(diff::write_trend({p0, p1, p2}, os, {}));
  std::istringstream lines(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_NE(line.find("\"schema\":\"tempest-diff-trend\""), std::string::npos);
  EXPECT_NE(line.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(line.find("\"mode\":\"files\""), std::string::npos);
  EXPECT_NE(line.find("\"runs\":3"), std::string::npos);

  std::size_t entries = 0, runs_seen[3] = {0, 0, 0};
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_NE(line.find("\"function\":"), std::string::npos);
    EXPECT_NE(line.find("\"time_mean_s\":"), std::string::npos);
    EXPECT_NE(line.find("\"time_sdv_s\":"), std::string::npos);
    for (int r = 0; r < 3; ++r) {
      if (line.find("\"run\":" + std::to_string(r) + ",") == 1) ++runs_seen[r];
    }
    ++entries;
  }
  // One series entry per run per surviving function.
  EXPECT_EQ(entries, 6u);
  for (int r = 0; r < 3; ++r) EXPECT_EQ(runs_seen[r], 2u) << r;
}

TEST(Trend, TopTruncatesPerRun) {
  const std::string p0 = temp_path("trend_top0.trace");
  const std::string p1 = temp_path("trend_top1.trace");
  ASSERT_TRUE(write_trace_file(p0, make_run({{"big", {9000}}, {"small", {100}}})));
  ASSERT_TRUE(write_trace_file(p1, make_run({{"big", {9000}}, {"small", {100}}})));

  diff::TrendOptions options;
  options.top = 1;
  std::ostringstream os;
  ASSERT_TRUE(diff::write_trend({p0, p1}, os, options));
  const std::string out = os.str();
  EXPECT_NE(out.find("\"big\""), std::string::npos);
  EXPECT_EQ(out.find("\"small\""), std::string::npos);

  EXPECT_FALSE(diff::write_trend({p0, temp_path("gone.trace")}, os, {}));
}

}  // namespace
