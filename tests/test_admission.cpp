// Admission pipeline: TEMPEST_FILTER suppression, per-function
// throttling, min-duration elision, and the flight-recorder ring —
// including the conservation invariant
//   calls_observed == recorded + suppressed + throttled
//                     + dropped + overwritten
// that tempest-lint enforces, and the ring-snapshot -> parse -> export
// round trip.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/lint.hpp"
#include "common/filter_file.hpp"
#include "core/admission.hpp"
#include "core/api.hpp"
#include "core/session.hpp"
#include "export/run.hpp"
#include "simnode/cluster.hpp"
#include "trace/reader.hpp"
#include "trace/writer.hpp"

namespace {

using namespace tempest;
using core::AddrSet;
using core::Session;
using core::SessionConfig;

simnode::NodeConfig fast_node() {
  auto config = simnode::make_node_config(simnode::NodeKind::kX86Basic);
  config.package.time_scale = 30.0;
  return config;
}

SessionConfig test_config() {
  SessionConfig c;
  c.sample_hz = 50.0;
  c.bind_affinity = false;
  return c;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// Write a TEMPEST_FILTER v1 file suppressing the given names.
std::string write_filter(const std::string& name,
                         const std::vector<std::string>& symbols) {
  common::FilterFile ff;
  for (const auto& s : symbols) ff.rules.push_back({s, "test"});
  const std::string path = temp_path(name);
  EXPECT_TRUE(common::write_filter_file(path, ff));
  return path;
}

void expect_conservation(const trace::RunStats& rs) {
  ASSERT_TRUE(rs.present);
  EXPECT_EQ(rs.calls_observed,
            rs.events_recorded + rs.events_suppressed + rs.events_throttled +
                rs.events_dropped + rs.events_overwritten);
}

std::uint64_t count_addr(const trace::Trace& t, std::uint64_t addr) {
  std::uint64_t n = 0;
  for (const auto& e : t.fn_events) {
    if (e.addr == addr) ++n;
  }
  return n;
}

TEST(AddrSet, InsertAndContains) {
  AddrSet set(4);
  EXPECT_FALSE(set.contains(0x1000));
  EXPECT_TRUE(set.insert(0x1000));
  EXPECT_TRUE(set.insert(0x1000));  // idempotent
  EXPECT_TRUE(set.contains(0x1000));
  EXPECT_FALSE(set.contains(0x1008));
  EXPECT_FALSE(set.insert(0));  // sentinel is never a function
  EXPECT_EQ(set.size(), 1u);
  EXPECT_GE(set.capacity(), 64u);
}

TEST(AddrSet, RefusesBeyondLoadFactor) {
  AddrSet set(0);  // minimum capacity: 64 slots, 32 usable
  std::size_t inserted = 0;
  for (std::uint64_t a = 8; a < 8 + 64 * 8; a += 8) {
    if (set.insert(a)) ++inserted;
  }
  EXPECT_EQ(inserted, set.capacity() / 2);
  // Everything that got in is still findable after refusals.
  std::size_t found = 0;
  for (std::uint64_t a = 8; a < 8 + 64 * 8; a += 8) {
    if (set.contains(a)) ++found;
  }
  EXPECT_EQ(found, inserted);
}

TEST(AddrSet, ConcurrentInsertAndProbe) {
  AddrSet set(4096);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 512;
  std::vector<std::thread> threads;
  std::atomic<std::size_t> ok{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&set, &ok, t] {
      std::size_t mine = 0;
      for (std::uint64_t i = 1; i <= kPerThread; ++i) {
        // Half the addresses are shared across threads (CAS races on
        // identical keys), half are unique per thread.
        const std::uint64_t shared = i * 16;
        const std::uint64_t unique =
            0x100000 + (static_cast<std::uint64_t>(t) << 32) + i * 8;
        if (set.insert(shared)) ++mine;
        if (set.insert(unique)) ++mine;
        if (!set.contains(shared) || !set.contains(unique)) {
          mine = 0;  // poison: lookups must never miss after insert
          break;
        }
      }
      ok.fetch_add(mine);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok.load(), kThreads * kPerThread * 2);
  // Shared addresses count once, unique ones per thread.
  EXPECT_EQ(set.size(), kPerThread + kThreads * kPerThread);
}

TEST(Admission, FilterSuppressesRegionsWithConservation) {
  auto& session = Session::instance();
  session.clear_nodes();
  simnode::SimNode node(fast_node());
  session.register_sim_node(&node);

  SessionConfig c = test_config();
  c.filter_path = write_filter("adm_filter.txt", {"adm_noisy_leaf"});
  ASSERT_TRUE(session.start(c));
  const std::uint64_t noisy = session.synthetic_addr("adm_noisy_leaf");
  const std::uint64_t kept = session.synthetic_addr("adm_kept_work");
  for (int i = 0; i < 1000; ++i) {
    session.record_enter(kept);
    session.record_enter(noisy);
    session.record_exit(noisy);
    session.record_exit(kept);
  }
  ASSERT_TRUE(session.stop());
  session.clear_nodes();

  const trace::Trace& t = session.last_trace();
  EXPECT_EQ(count_addr(t, noisy), 0u);
  EXPECT_EQ(count_addr(t, kept), 2000u);
  EXPECT_EQ(t.run_stats.events_suppressed, 2000u);
  EXPECT_EQ(t.run_stats.calls_observed, 4000u);
  expect_conservation(t.run_stats);

  // The trace declares its filter, so lint treats suppression as
  // intentional: zero errors, and no filter-undeclared warning.
  EXPECT_TRUE(t.filter.present);
  EXPECT_EQ(t.filter.source, c.filter_path);
  ASSERT_EQ(t.filter.suppressed.size(), 1u);
  EXPECT_EQ(t.filter.suppressed[0], "adm_noisy_leaf");
  EXPECT_GE(t.filter.resolved, 1u);
  const analysis::LintReport report = analysis::lint_trace(t);
  EXPECT_EQ(report.error_count, 0u) << analysis::to_json(report);
  for (const auto& f : report.findings) {
    EXPECT_NE(f.check, "filter-undeclared") << f.message;
  }
}

TEST(Admission, SuppressedEventsWithoutDeclWarnInLint) {
  // Hand-build the inconsistent case: suppression counted, no FLTR.
  trace::Trace t;
  t.tsc_ticks_per_second = 1e9;
  t.run_stats.present = true;
  t.run_stats.events_recorded = 0;
  t.run_stats.events_suppressed = 10;
  t.run_stats.calls_observed = 10;
  const analysis::LintReport report = analysis::lint_trace(t);
  bool warned = false;
  for (const auto& f : report.findings) {
    if (f.check == "filter-undeclared") warned = true;
  }
  EXPECT_TRUE(warned);
}

TEST(Admission, ConservationViolationIsLintError) {
  trace::Trace t;
  t.tsc_ticks_per_second = 1e9;
  t.run_stats.present = true;
  t.run_stats.events_recorded = 5;
  t.run_stats.calls_observed = 9;  // 4 calls vanished unaccounted
  analysis::LintReport report = analysis::lint_trace(t);
  bool found = false;
  for (const auto& f : report.findings) {
    if (f.check == "admission-conservation") {
      found = true;
      EXPECT_EQ(f.severity, analysis::Severity::kError);
    }
  }
  // (events_recorded=5 vs 0 fn events also errors; that's fine here.)
  EXPECT_TRUE(found);
}

TEST(Admission, RateCapThrottlesInPairs) {
  auto& session = Session::instance();
  session.clear_nodes();
  simnode::SimNode node(fast_node());
  session.register_sim_node(&node);

  SessionConfig c = test_config();
  c.rate_cap = 8;  // per function/thread/100 ms window
  ASSERT_TRUE(session.start(c));
  const std::uint64_t hot = session.synthetic_addr("adm_rate_hot");
  constexpr int kPairs = 5000;
  for (int i = 0; i < kPairs; ++i) {
    session.record_enter(hot);
    session.record_exit(hot);
  }
  ASSERT_TRUE(session.stop());
  session.clear_nodes();

  const trace::Trace& t = session.last_trace();
  std::uint64_t enters = 0, exits = 0;
  for (const auto& e : t.fn_events) {
    if (e.addr != hot) continue;
    if (e.kind == trace::FnEventKind::kEnter) ++enters;
    if (e.kind == trace::FnEventKind::kExit) ++exits;
  }
  // Pairs are admitted or dropped together — never an orphan half.
  EXPECT_EQ(enters, exits);
  EXPECT_GT(enters, 0u);
  EXPECT_LT(enters, static_cast<std::uint64_t>(kPairs));
  EXPECT_GT(t.run_stats.events_throttled, 0u);
  EXPECT_EQ(t.run_stats.calls_observed,
            static_cast<std::uint64_t>(kPairs) * 2);
  expect_conservation(t.run_stats);
  const analysis::LintReport report = analysis::lint_trace(t);
  EXPECT_EQ(report.error_count, 0u) << analysis::to_json(report);
}

TEST(Admission, MinDurationElidesShortLeafPairs) {
  auto& session = Session::instance();
  session.clear_nodes();
  simnode::SimNode node(fast_node());
  session.register_sim_node(&node);

  SessionConfig c = test_config();
  c.min_duration_ns = 1'000'000'000;  // 1 s: every leaf pair is "short"
  ASSERT_TRUE(session.start(c));
  const std::uint64_t outer = session.synthetic_addr("adm_elide_outer");
  const std::uint64_t leaf = session.synthetic_addr("adm_elide_leaf");
  constexpr int kPairs = 1000;
  session.record_enter(outer);
  for (int i = 0; i < kPairs; ++i) {
    session.record_enter(leaf);
    session.record_exit(leaf);
  }
  session.record_exit(outer);
  ASSERT_TRUE(session.stop());
  session.clear_nodes();

  const trace::Trace& t = session.last_trace();
  // Leaf pairs elide; the outer pair is not a leaf (its exit's cursor
  // moved past its enter... unless every inner pair elided, leaving the
  // outer enter newest again — elision then legitimately takes it too).
  EXPECT_EQ(count_addr(t, leaf), 0u);
  EXPECT_GE(t.run_stats.events_throttled,
            static_cast<std::uint64_t>(kPairs) * 2);
  expect_conservation(t.run_stats);
}

TEST(Admission, RingWrapKeepsNewestWithConservation) {
  auto& session = Session::instance();
  session.clear_nodes();
  simnode::SimNode node(fast_node());
  session.register_sim_node(&node);

  SessionConfig c = test_config();
  c.ring_events = 1;  // rounds up to the 2-chunk minimum (128 Ki events)
  ASSERT_TRUE(session.start(c));
  const std::uint64_t spin = session.synthetic_addr("adm_ring_spin");
  // 3 chunks' worth of events guarantees at least one recycle.
  constexpr std::uint64_t kCalls = 3 * 64 * 1024;
  for (std::uint64_t i = 0; i < kCalls / 2; ++i) {
    session.record_enter(spin);
    session.record_exit(spin);
  }
  ASSERT_TRUE(session.stop());
  session.clear_nodes();

  const trace::Trace& t = session.last_trace();
  const trace::RunStats& rs = t.run_stats;
  EXPECT_GT(rs.events_overwritten, 0u);
  EXPECT_EQ(rs.events_recorded, t.fn_events.size());
  EXPECT_LE(t.fn_events.size(), std::size_t{2} * 64 * 1024);
  EXPECT_EQ(rs.calls_observed, kCalls);
  expect_conservation(rs);
  // The retained window is the *newest* events: the last exit survives.
  ASSERT_FALSE(t.fn_events.empty());
  EXPECT_EQ(t.fn_events.back().kind, trace::FnEventKind::kExit);
  const analysis::LintReport report = analysis::lint_trace(t);
  EXPECT_EQ(report.error_count, 0u) << analysis::to_json(report);
}

TEST(Admission, RingSnapshotParsesAndExports) {
  auto& session = Session::instance();
  session.clear_nodes();
  simnode::SimNode node(fast_node());
  session.register_sim_node(&node);

  SessionConfig c = test_config();
  c.ring_events = 1;
  c.output_path = temp_path("adm_snap.trace");
  ASSERT_TRUE(session.start(c));
  const std::uint64_t work = session.synthetic_addr("adm_snap_work");
  for (int i = 0; i < 20000; ++i) {
    session.record_enter(work);
    session.record_exit(work);
  }
  auto snap_path = session.request_snapshot(10.0);
  ASSERT_TRUE(snap_path.is_ok()) << snap_path.message();
  // Recording re-arms before the snapshot is reported; the run continues
  // and the pair recorded next reaches the final trace.
  ASSERT_TRUE(session.active());
  const std::uint64_t after = session.synthetic_addr("adm_snap_after");
  session.record_enter(after);
  session.record_exit(after);
  ASSERT_TRUE(session.stop());
  session.clear_nodes();
  EXPECT_EQ(session.last_trace().run_stats.ring_snapshots, 1u);
  std::vector<trace::FnEventKind> after_kinds;
  for (const auto& e : session.last_trace().fn_events) {
    if (e.addr == after) after_kinds.push_back(e.kind);
  }
  EXPECT_EQ(after_kinds, (std::vector<trace::FnEventKind>{trace::FnEventKind::kEnter,
                                                          trace::FnEventKind::kExit}));

  // The snapshot is a valid trace-v2 file in its own right.
  auto parsed = trace::read_trace_file(snap_path.value());
  ASSERT_TRUE(parsed.is_ok()) << parsed.message();
  const trace::Trace& snap = parsed.value();
  EXPECT_GT(snap.fn_events.size(), 0u);
  EXPECT_EQ(snap.run_stats.ring_snapshots, 1u);
  expect_conservation(snap.run_stats);
  const analysis::LintReport report = analysis::lint_trace(snap);
  EXPECT_EQ(report.error_count, 0u) << analysis::to_json(report);

  // ... and it flows through both exporters.
  {
    std::ostringstream out;
    exporter::ExportRunOptions options;
    options.format = exporter::Format::kPerfetto;
    auto ran = exporter::run_export({snap_path.value()}, out, options);
    ASSERT_TRUE(ran.is_ok()) << ran.message();
    EXPECT_NE(out.str().find("adm_snap_work"), std::string::npos);
  }
  {
    std::ostringstream out;
    exporter::ExportRunOptions options;
    options.format = exporter::Format::kSpeedscope;
    options.spool_prefix = temp_path("adm_snap_spool");
    auto ran = exporter::run_export({snap_path.value()}, out, options);
    ASSERT_TRUE(ran.is_ok()) << ran.message();
    EXPECT_NE(out.str().find("adm_snap_work"), std::string::npos);
  }
  std::remove(snap_path.value().c_str());
  std::remove(c.output_path.c_str());
}

// The live overhead checks count tempd's CPU while it runs: with no hook
// calls the sampler alone is over an impossible budget, so the ring-mode
// watchdog snapshots the run before stop.
TEST(Admission, RingWatchdogCountsTempdCpu) {
  auto& session = Session::instance();
  session.clear_nodes();
  simnode::SimNode node(fast_node());
  session.register_sim_node(&node);

  SessionConfig c = test_config();
  c.ring_events = 1;
  c.watchdog = true;
  c.watchdog_budget = 1e-9;
  c.output_path = temp_path("adm_watchdog.trace");
  const std::string snap_path = c.output_path + ".snapshot";
  std::remove(snap_path.c_str());
  ASSERT_TRUE(session.start(c));
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_FALSE(session.stop());  // the stop-time verdict trips as well
  session.clear_nodes();
  EXPECT_GE(session.last_trace().run_stats.ring_snapshots, 1u);

  auto parsed = trace::read_trace_file(snap_path);
  ASSERT_TRUE(parsed.is_ok()) << parsed.message();
  EXPECT_GE(parsed.value().run_stats.ring_snapshots, 1u);
  std::remove(snap_path.c_str());
  std::remove(c.output_path.c_str());
}

/// The header fields a snapshot shares with the stopped trace, encoded.
std::string shared_header(const trace::Trace& t) {
  trace::Trace h;
  h.tsc_ticks_per_second = t.tsc_ticks_per_second;
  h.executable = t.executable;
  h.load_bias = t.load_bias;
  h.nodes = t.nodes;
  h.sensors = t.sensors;
  h.synthetic_symbols = t.synthetic_symbols;
  h.filter = t.filter;
  return trace::encode_trace(h);
}

// A snapshot and the stopped trace are sealed by the same code: with no
// region minted between them, their headers match byte for byte.
TEST(Admission, SnapshotHeaderMatchesStoppedTrace) {
  auto& session = Session::instance();
  session.clear_nodes();
  simnode::SimNode node(fast_node());
  session.register_sim_node(&node);

  SessionConfig c = test_config();
  c.filter_path = write_filter("adm_header_filter.txt", {"adm_header_cold"});
  c.output_path = temp_path("adm_header.trace");
  ASSERT_TRUE(session.start(c));
  const std::uint64_t cold = session.synthetic_addr("adm_header_cold");
  const std::uint64_t hot = session.synthetic_addr("adm_header_hot");
  for (int i = 0; i < 1000; ++i) {
    session.record_enter(hot);
    session.record_enter(cold);
    session.record_exit(cold);
    session.record_exit(hot);
  }
  auto snap_path = session.request_snapshot(10.0);
  ASSERT_TRUE(snap_path.is_ok()) << snap_path.message();
  ASSERT_TRUE(session.stop());
  session.clear_nodes();

  auto parsed = trace::read_trace_file(snap_path.value());
  ASSERT_TRUE(parsed.is_ok()) << parsed.message();
  const trace::Trace& stopped = session.last_trace();
  ASSERT_FALSE(stopped.executable.empty());
  ASSERT_FALSE(stopped.sensors.empty());
  ASSERT_TRUE(stopped.filter.present);
  EXPECT_EQ(stopped.filter.resolved, 1u);
  EXPECT_EQ(shared_header(parsed.value()), shared_header(stopped));
  std::remove(snap_path.value().c_str());
  std::remove(c.output_path.c_str());
  std::remove(c.filter_path.c_str());
}

// N threads hammer the suppression set and their own rings while a
// snapshot is taken mid-run. The worker<->main handoff goes through a
// mutex/condvar barrier, so every buffered write happens-before the
// snapshot read — the test is exact under TSan while still exercising
// snapshot-while-threads-alive.
TEST(Admission, ConcurrentHammerWithSnapshot) {
  auto& session = Session::instance();
  session.clear_nodes();
  simnode::SimNode node(fast_node());
  session.register_sim_node(&node);

  SessionConfig c = test_config();
  c.filter_path = write_filter("adm_hammer_filter.txt", {"adm_hammer_cold"});
  c.ring_events = 1;
  c.output_path = temp_path("adm_hammer.trace");
  ASSERT_TRUE(session.start(c));
  const std::uint64_t cold = session.synthetic_addr("adm_hammer_cold");
  const std::uint64_t hot = session.synthetic_addr("adm_hammer_hot");

  constexpr int kThreads = 4;
  constexpr int kPairsPerPhase = 40 * 1024;  // > 1 chunk: rings wrap
  std::mutex mu;
  std::condition_variable cv;
  int checked_in = 0;
  bool resume = false;

  auto hammer = [&] {
    for (int i = 0; i < kPairsPerPhase; ++i) {
      session.record_enter(hot);
      session.record_enter(cold);  // suppressed: shared AddrSet probe
      session.record_exit(cold);
      session.record_exit(hot);
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      hammer();
      {
        std::unique_lock<std::mutex> lock(mu);
        ++checked_in;
        cv.notify_all();
        cv.wait(lock, [&] { return resume; });
      }
      hammer();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return checked_in == kThreads; });
  }
  auto snap = session.request_snapshot(10.0);
  EXPECT_TRUE(snap.is_ok()) << snap.message();
  {
    std::unique_lock<std::mutex> lock(mu);
    resume = true;
    cv.notify_all();
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE(session.stop());
  session.clear_nodes();

  const trace::Trace& t = session.last_trace();
  const std::uint64_t total_calls =
      std::uint64_t{kThreads} * 2 * 2 * kPairsPerPhase * 2;
  EXPECT_EQ(t.run_stats.calls_observed, total_calls);
  EXPECT_EQ(t.run_stats.events_suppressed, total_calls / 2);
  EXPECT_EQ(count_addr(t, cold), 0u);
  EXPECT_GT(t.run_stats.events_overwritten, 0u);
  expect_conservation(t.run_stats);
  if (snap.is_ok()) {
    auto parsed = trace::read_trace_file(snap.value());
    ASSERT_TRUE(parsed.is_ok()) << parsed.message();
    expect_conservation(parsed.value().run_stats);
    std::remove(snap.value().c_str());
  }
  std::remove(c.output_path.c_str());
}

TEST(Admission, ApiSnapshotRequiresActiveSession) {
  auto& session = Session::instance();
  ASSERT_FALSE(session.active());
  EXPECT_FALSE(tempest::snapshot(0.1).is_ok());
}

}  // namespace
