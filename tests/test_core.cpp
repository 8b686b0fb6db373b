// libtempest core: session lifecycle, tempd sampling, explicit and
// per-block APIs, config parsing, workbench DVFS stretching.
#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "core/api.hpp"
#include "core/config.hpp"
#include "core/perblk.hpp"
#include "core/session.hpp"
#include "core/workbench.hpp"
#include "simnode/cluster.hpp"

namespace {

using namespace tempest;
using core::Session;
using core::SessionConfig;
using core::Workbench;

simnode::NodeConfig fast_node() {
  auto config = simnode::make_node_config(simnode::NodeKind::kX86Basic);
  config.package.time_scale = 30.0;
  return config;
}

SessionConfig test_config(double hz = 50.0) {
  SessionConfig c;
  c.sample_hz = hz;
  c.bind_affinity = false;
  return c;
}

TEST(SessionConfig, EnvOverrides) {
  ::setenv("TEMPEST_HZ", "8", 1);
  ::setenv("TEMPEST_UNIT", "C", 1);
  ::setenv("TEMPEST_BIND", "0", 1);
  ::setenv("TEMPEST_OUT", "/tmp/t.trace", 1);
  ::setenv("TEMPEST_MIN_SAMPLES", "5", 1);
  const SessionConfig c = SessionConfig::from_env();
  EXPECT_DOUBLE_EQ(c.sample_hz, 8.0);
  EXPECT_EQ(c.unit, TempUnit::kCelsius);
  EXPECT_FALSE(c.bind_affinity);
  EXPECT_EQ(c.output_path, "/tmp/t.trace");
  EXPECT_EQ(c.min_samples_significant, 5u);
  ::unsetenv("TEMPEST_HZ");
  ::unsetenv("TEMPEST_UNIT");
  ::unsetenv("TEMPEST_BIND");
  ::unsetenv("TEMPEST_OUT");
  ::unsetenv("TEMPEST_MIN_SAMPLES");
}

TEST(SessionConfig, InvalidHzFallsBackToPaperRate) {
  ::setenv("TEMPEST_HZ", "-3", 1);
  EXPECT_DOUBLE_EQ(SessionConfig::from_env().sample_hz, 4.0);
  ::unsetenv("TEMPEST_HZ");
}

TEST(SessionConfig, MaxEventsRejectsZeroAndGarbage) {
  // An explicit cap of 0 reads as "record nothing" — never what anyone
  // meant; it warns and stays unbounded, as do garbage and negatives.
  for (const char* bad : {"0", "banana", "-5", "1e3"}) {
    ::setenv("TEMPEST_MAX_EVENTS", bad, 1);
    EXPECT_EQ(SessionConfig::from_env().max_events_per_thread, 0u)
        << "value '" << bad << "'";
  }
  ::setenv("TEMPEST_MAX_EVENTS", "65536", 1);
  EXPECT_EQ(SessionConfig::from_env().max_events_per_thread, 65536u);
  ::unsetenv("TEMPEST_MAX_EVENTS");
}

TEST(SessionConfig, AdmissionEnvOverrides) {
  ::setenv("TEMPEST_FILTER", "/tmp/f.filter", 1);
  ::setenv("TEMPEST_MIN_DURATION_NS", "2500", 1);
  ::setenv("TEMPEST_RATE_CAP", "1000", 1);
  ::setenv("TEMPEST_ADAPTIVE", "1", 1);
  ::setenv("TEMPEST_RING_EVENTS", "200000", 1);
  ::setenv("TEMPEST_RING_SECONDS", "30", 1);
  const SessionConfig c = SessionConfig::from_env();
  EXPECT_EQ(c.filter_path, "/tmp/f.filter");
  EXPECT_EQ(c.min_duration_ns, 2500);
  EXPECT_EQ(c.rate_cap, 1000);
  EXPECT_TRUE(c.adaptive);
  EXPECT_EQ(c.ring_events, 200000u);
  EXPECT_DOUBLE_EQ(c.ring_seconds, 30.0);
  ::unsetenv("TEMPEST_FILTER");
  ::unsetenv("TEMPEST_MIN_DURATION_NS");
  ::unsetenv("TEMPEST_RATE_CAP");
  ::unsetenv("TEMPEST_ADAPTIVE");
  ::unsetenv("TEMPEST_RING_EVENTS");
  ::unsetenv("TEMPEST_RING_SECONDS");
}

TEST(SessionConfig, MalformedAdmissionValuesFallBack) {
  ::setenv("TEMPEST_RATE_CAP", "often", 1);
  ::setenv("TEMPEST_RING_EVENTS", "-1", 1);
  ::setenv("TEMPEST_RING_SECONDS", "a minute", 1);
  const SessionConfig c = SessionConfig::from_env();
  EXPECT_EQ(c.rate_cap, 0);
  EXPECT_EQ(c.ring_events, 0u);
  EXPECT_DOUBLE_EQ(c.ring_seconds, 0.0);
  ::unsetenv("TEMPEST_RATE_CAP");
  ::unsetenv("TEMPEST_RING_EVENTS");
  ::unsetenv("TEMPEST_RING_SECONDS");
}

TEST(SessionConfig, SnapshotSignalParsing) {
  const auto signal_for = [](const char* spec) {
    ::setenv("TEMPEST_SNAPSHOT_SIGNAL", spec, 1);
    const int s = SessionConfig::from_env().snapshot_signal;
    ::unsetenv("TEMPEST_SNAPSHOT_SIGNAL");
    return s;
  };
  EXPECT_EQ(signal_for("USR2"), SIGUSR2);
  EXPECT_EQ(signal_for("SIGUSR2"), SIGUSR2);
  EXPECT_EQ(signal_for("USR1"), SIGUSR1);
  EXPECT_EQ(signal_for(std::to_string(SIGUSR2).c_str()), SIGUSR2);
  EXPECT_EQ(signal_for("WINCH-ish"), -1);
  EXPECT_EQ(signal_for(""), -1);
  EXPECT_EQ(SessionConfig::from_env().snapshot_signal, -1);  // unset
}

TEST(Session, LifecycleErrors) {
  auto& session = Session::instance();
  session.clear_nodes();
  // No nodes: start refuses.
  EXPECT_FALSE(session.start(test_config()));
  EXPECT_FALSE(session.stop());  // not active

  simnode::SimNode node(fast_node());
  session.register_sim_node(&node);
  ASSERT_TRUE(session.start(test_config()));
  EXPECT_TRUE(session.active());
  EXPECT_FALSE(session.start(test_config()));  // double start
  ASSERT_TRUE(session.stop());
  EXPECT_FALSE(session.active());
  session.clear_nodes();
}

TEST(Session, TempdSamplesAtConfiguredRate) {
  auto& session = Session::instance();
  session.clear_nodes();
  simnode::SimNode node(fast_node());
  session.register_sim_node(&node);

  ASSERT_TRUE(session.start(test_config(20.0)));
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  ASSERT_TRUE(session.stop());

  const auto& trace = session.last_trace();
  // ~10 ticks x 3 sensors; allow generous scheduling slack.
  EXPECT_GE(trace.temp_samples.size(), 3u * 6u);
  EXPECT_LE(trace.temp_samples.size(), 3u * 20u);
  // Sensor metadata recorded for the x86 layout.
  EXPECT_EQ(trace.sensors.size(), 3u);
  EXPECT_EQ(trace.nodes.size(), 1u);
  EXPECT_GT(trace.tsc_ticks_per_second, 0.0);
  EXPECT_FALSE(trace.executable.empty());
  // tempd is light: well under the paper's 1% CPU bound even at 20 Hz.
  EXPECT_LT(session.tempd_stats().cpu_seconds, 0.05);
  EXPECT_EQ(session.tempd_stats().read_errors, 0u);
  session.clear_nodes();
}

TEST(Session, ExplicitRegionsAndBlocks) {
  auto& session = Session::instance();
  session.clear_nodes();
  simnode::SimNode node(fast_node());
  const auto node_id = session.register_sim_node(&node);
  ASSERT_TRUE(session.start(test_config()));
  (void)session.attach_current_thread(node_id, 0);

  {
    ScopedRegion outer("outer_region");
    tempest_blk_begin("outer_region", "block1");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    tempest_blk_end("outer_region", "block1");
    region_enter("manual");
    region_exit("manual");
  }
  ASSERT_TRUE(session.stop());
  const auto& trace = session.last_trace();

  // 3 synthetic names: outer_region, outer_region:block1, manual.
  ASSERT_EQ(trace.synthetic_symbols.size(), 3u);
  EXPECT_EQ(trace.fn_events.size(), 6u);
  bool found_block = false;
  for (const auto& s : trace.synthetic_symbols) {
    found_block |= s.name == "outer_region:block1";
  }
  EXPECT_TRUE(found_block);
  session.clear_nodes();
}

TEST(Session, SyntheticAddrStablePerName) {
  auto& session = Session::instance();
  const auto a1 = session.synthetic_addr("same_name");
  const auto a2 = session.synthetic_addr("same_name");
  const auto b = session.synthetic_addr("other_name");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_GE(a1, trace::kSyntheticAddrBase);
}

TEST(Session, EventsDroppedWhenInactive) {
  auto& session = Session::instance();
  const std::size_t before = session.registry().total_events();
  session.record_enter(0x1234);  // inactive: dropped
  session.record_exit(0x1234);
  EXPECT_EQ(session.registry().total_events(), before);
}

TEST(Session, AttachRejectsUnknownNode) {
  auto& session = Session::instance();
  session.clear_nodes();
  EXPECT_FALSE(session.attach_current_thread(7, 0));
}

TEST(Session, MultipleRunsInOneProcess) {
  auto& session = Session::instance();
  session.clear_nodes();
  simnode::SimNode node(fast_node());
  session.register_sim_node(&node);

  for (int run = 0; run < 3; ++run) {
    ASSERT_TRUE(session.start(test_config()));
    {
      ScopedRegion r("repeat_region");
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(session.stop());
    EXPECT_EQ(session.last_trace().fn_events.size(), 2u) << "run " << run;
  }
  session.clear_nodes();
}

TEST(Session, RunStatsMatchTheAssembledTrace) {
  auto& session = Session::instance();
  session.clear_nodes();
  simnode::SimNode node(fast_node());
  session.register_sim_node(&node);
  ASSERT_TRUE(session.start(test_config()));
  for (int i = 0; i < 100; ++i) {
    session.record_enter(0x1000);
    session.record_exit(0x1000);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(session.stop());
  const auto& trace = session.last_trace();
  const trace::RunStats& rs = trace.run_stats;
  ASSERT_TRUE(rs.present);
  // The recorder's own accounting agrees with what it handed over —
  // exactly the invariant tempest-lint cross-checks on every trace.
  EXPECT_EQ(rs.events_recorded, trace.fn_events.size());
  EXPECT_EQ(rs.events_dropped, 0u);
  EXPECT_EQ(rs.tempd_samples, trace.temp_samples.size());
  EXPECT_GE(rs.threads_registered, 1u);
  EXPECT_GT(rs.wall_seconds, 0.0);
  EXPECT_GE(rs.tempd_ticks, 2u);  // immediate tick + final tick minimum
  session.clear_nodes();
}

TEST(Session, StoppedTraceIsTimeOrderedAcrossAClockRebind) {
  // A thread that moves to a node whose clock runs behind steps its own
  // timestamps back, splitting its run in two. Stop trusts the drain's
  // merge for event order and takes the bounds from its ends, so the
  // trace must come out time-ordered with the bounds a scan finds.
  auto& session = Session::instance();
  session.clear_nodes();
  auto ahead_config = fast_node();
  ahead_config.tsc_offset_ticks = std::int64_t{1} << 40;
  simnode::SimNode ahead(ahead_config);
  simnode::SimNode behind(fast_node());
  const auto ahead_id = session.register_sim_node(&ahead);
  const auto behind_id = session.register_sim_node(&behind);
  ASSERT_TRUE(session.start(test_config()));
  const auto pairs = [&](std::uint64_t addr) {
    for (int i = 0; i < 100; ++i) {
      session.record_enter(addr);
      session.record_exit(addr);
    }
  };
  std::thread other([&] {
    (void)session.attach_current_thread(behind_id, 1);
    pairs(0x3000);
  });
  ASSERT_TRUE(session.attach_current_thread(ahead_id, 0));
  pairs(0x1000);
  ASSERT_TRUE(session.attach_current_thread(behind_id, 0));  // steps back
  pairs(0x2000);
  other.join();
  ASSERT_TRUE(session.stop());

  const trace::Trace& t = session.last_trace();
  ASSERT_EQ(t.fn_events.size(), 600u);
  ASSERT_FALSE(t.temp_samples.empty());
  const auto by_tsc = [](const auto& a, const auto& b) { return a.tsc < b.tsc; };
  EXPECT_TRUE(std::is_sorted(t.fn_events.begin(), t.fn_events.end(), by_tsc));
  EXPECT_TRUE(std::is_sorted(t.temp_samples.begin(), t.temp_samples.end(), by_tsc));
  EXPECT_GT(t.fn_events.back().tsc, std::uint64_t{1} << 40);  // the split held
  std::uint64_t start = UINT64_MAX, end = 0;
  for (const auto& e : t.fn_events) {
    start = std::min(start, e.tsc);
    end = std::max(end, e.tsc);
  }
  for (const auto& s : t.temp_samples) {
    start = std::min(start, s.tsc);
    end = std::max(end, s.tsc);
  }
  EXPECT_EQ(t.start_tsc(), start);
  EXPECT_EQ(t.end_tsc(), end);
  session.clear_nodes();
}

TEST(Session, MaxEventsCapDropsLoudly) {
  auto& session = Session::instance();
  session.clear_nodes();
  simnode::SimNode node(fast_node());
  session.register_sim_node(&node);
  auto config = test_config();
  // One chunk (the cap rounds up to whole chunks); then drops begin.
  config.max_events_per_thread = 1;
  ASSERT_TRUE(session.start(config));
  constexpr std::size_t kPushed = 3 * core::EventBuffer::kChunkSize;
  for (std::size_t i = 0; i < kPushed; ++i) {
    session.record_enter(0x2000);
  }
  ASSERT_TRUE(session.stop());
  const auto& trace = session.last_trace();
  const trace::RunStats& rs = trace.run_stats;
  ASSERT_TRUE(rs.present);
  EXPECT_EQ(trace.fn_events.size(), core::EventBuffer::kChunkSize);
  EXPECT_EQ(rs.events_recorded, trace.fn_events.size());
  // Every pushed-but-not-kept event is accounted for, none silently.
  EXPECT_EQ(rs.events_dropped, kPushed - core::EventBuffer::kChunkSize);
  session.clear_nodes();
}

// ASan's quarantine and TSan's allocator keep freed blocks resident, so
// under them VmRSS measures the sanitizer, not the recorder.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define TEMPEST_SANITIZED_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define TEMPEST_SANITIZED_ALLOCATOR 1
#endif
#endif

/// This process's resident set in MiB, from /proc/self/status, after
/// handing free heap pages back to the kernel: glibc keeps a freed
/// trace vector's pages in its heap (below the trim threshold), which
/// says nothing about what the recorder itself still holds.
double vm_rss_mib() {
#if defined(__GLIBC__)
  ::malloc_trim(0);
#endif
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

TEST(Session, BackToBackSessionsKeepNoDrainedBuffers) {
  // A retired thread state outlives its session (a racing hook may
  // still hold it), but after the drain it keeps only its write-head
  // chunk: memory must not grow by a session's events per session.
#ifdef TEMPEST_SANITIZED_ALLOCATOR
  GTEST_SKIP() << "sanitizer allocators keep freed memory resident";
#endif
  auto& session = Session::instance();
  session.clear_nodes();
  simnode::SimNode node(fast_node());
  session.register_sim_node(&node);
  constexpr std::size_t kPairs = 500'000;  // ~1M events per session
  const double session_mib =
      2.0 * kPairs * sizeof(trace::FnEvent) / (1024.0 * 1024.0);
  double first_mib = 0.0;
  for (int s = 0; s < 8; ++s) {
    ASSERT_TRUE(session.start(test_config(4.0)));
    const std::uint64_t addr = session.synthetic_addr("back_to_back");
    for (std::size_t i = 0; i < kPairs; ++i) {
      session.record_enter(addr);
      session.record_exit(addr);
    }
    ASSERT_TRUE(session.stop());
    ASSERT_EQ(session.take_trace().fn_events.size(), 2 * kPairs);
    const double rss_mib = vm_rss_mib();
    ASSERT_GT(rss_mib, 0.0) << "no VmRSS in /proc/self/status";
    if (s == 0) {
      first_mib = rss_mib;
    } else {
      EXPECT_LE(rss_mib - first_mib, session_mib)
          << "session " << s << ": " << rss_mib << " MiB after the first's "
          << first_mib << " MiB";
    }
  }
  session.clear_nodes();
}

TEST(Session, WatchdogFailsStopWhenBudgetExceeded) {
  auto& session = Session::instance();
  session.clear_nodes();
  simnode::SimNode node(fast_node());
  session.register_sim_node(&node);
  auto config = test_config(200.0);  // busy sampler
  config.watchdog = true;
  config.watchdog_budget = 1e-9;  // impossible budget: any run trips it
  ASSERT_TRUE(session.start(config));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto status = session.stop();
  EXPECT_FALSE(status.is_ok());
  EXPECT_NE(status.message().find("watchdog"), std::string::npos);
  // The verdict is advisory-after-the-fact: the trace still assembled.
  EXPECT_TRUE(session.last_trace().run_stats.present);
  session.clear_nodes();
}

TEST(Session, WatchdogQuietWhenUnderBudget) {
  auto& session = Session::instance();
  session.clear_nodes();
  simnode::SimNode node(fast_node());
  session.register_sim_node(&node);
  auto config = test_config(4.0);  // the paper's gentle rate
  config.watchdog = true;          // default 1% budget
  ASSERT_TRUE(session.start(config));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_TRUE(session.stop());
  session.clear_nodes();
}

TEST(Session, HeartbeatSidecarWrittenNextToTrace) {
  auto& session = Session::instance();
  session.clear_nodes();
  simnode::SimNode node(fast_node());
  session.register_sim_node(&node);
  const std::string trace_path = ::testing::TempDir() + "/hb_session.trace";
  auto config = test_config();
  config.output_path = trace_path;
  config.heartbeat_period_s = 0.01;
  ASSERT_TRUE(session.start(config));
  session.record_enter(0x3000);
  session.record_exit(0x3000);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  ASSERT_TRUE(session.stop());

  std::ifstream hb(trace_path + ".telemetry.jsonl");
  ASSERT_TRUE(hb.is_open());
  std::string line, last;
  std::size_t lines = 0;
  while (std::getline(hb, line)) {
    if (!line.empty()) {
      last = line;
      ++lines;
    }
  }
  EXPECT_GE(lines, 3u);  // start + >=1 periodic + final
  // The final snapshot carries the drained totals.
  EXPECT_NE(last.find("\"events_recorded\":2"), std::string::npos) << last;
  // And the RUNSTATS trailer knows how many heartbeats were written.
  EXPECT_EQ(session.last_trace().run_stats.heartbeats, lines);
  std::remove((trace_path + ".telemetry.jsonl").c_str());
  std::remove(trace_path.c_str());
  session.clear_nodes();
}

TEST(Workbench, BurnHonoursDvfsSpeedFactor) {
  // A throttled node stretches the same work: compare wall time at
  // full speed vs pinned to the slowest P-state.
  auto config = fast_node();
  simnode::SimNode fast(config);
  simnode::SimNode slow(config);
  // Force the slow node's governor into its lowest state.
  slow.package().governor() =
      thermal::DvfsGovernor({thermal::GovernorMode::kThreshold, -100.0, -200.0}, 3);
  (void)slow.package().governor().evaluate(50.0);
  (void)slow.package().governor().evaluate(50.0);
  ASSERT_LT(slow.speed_factor(), 1.0);

  Workbench wb_fast(&fast, 0), wb_slow(&slow, 0);
  const auto t0 = std::chrono::steady_clock::now();
  wb_fast.burn(0.1);
  const auto t1 = std::chrono::steady_clock::now();
  wb_slow.burn(0.1);
  const auto t2 = std::chrono::steady_clock::now();
  const double fast_s = std::chrono::duration<double>(t1 - t0).count();
  const double slow_s = std::chrono::duration<double>(t2 - t1).count();
  EXPECT_GT(slow_s, fast_s * 1.3);
}

TEST(Workbench, IdleMarksMeterIdle) {
  simnode::SimNode node(fast_node());
  Workbench bench(&node, 0);
  bench.attach();
  EXPECT_TRUE(node.core_meter(0).busy());
  bench.idle(0.02);
  EXPECT_TRUE(node.core_meter(0).busy());  // restored after idle scope
  bench.detach();
  EXPECT_FALSE(node.core_meter(0).busy());
}

}  // namespace
