// Concurrency stress: many threads hammering the instrumentation hot
// path while tempd samples; the event pipeline must lose nothing and
// the parser must reconstruct every thread's timeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "analysis/lint.hpp"
#include "core/api.hpp"
#include "core/session.hpp"
#include "parser/parse.hpp"
#include "simnode/cluster.hpp"

namespace {

using tempest::core::Session;

TEST(Concurrency, ParallelRegionsLoseNoEvents) {
  auto config = tempest::simnode::make_node_config(
      tempest::simnode::NodeKind::kOpteron);
  tempest::simnode::SimNode node(config);
  auto& session = Session::instance();
  session.clear_nodes();
  session.register_sim_node(&node);
  tempest::core::SessionConfig sc;
  sc.sample_hz = 100.0;  // sample aggressively while threads run
  sc.bind_affinity = false;
  ASSERT_TRUE(session.start(sc));

  constexpr int kThreads = 8;
  constexpr int kRegionsPerThread = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      (void)Session::instance().attach_current_thread(0, static_cast<std::uint16_t>(t % 4));
      const std::string name = "stress_region_" + std::to_string(t);
      for (int i = 0; i < kRegionsPerThread; ++i) {
        tempest::ScopedRegion region(name);
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE(session.stop());

  auto parsed = tempest::parser::parse_trace(session.take_trace());
  ASSERT_TRUE(parsed.is_ok()) << parsed.message();
  // Every region of every thread accounted for, perfectly balanced.
  EXPECT_EQ(parsed.value().diagnostics.unmatched_exits, 0u);
  EXPECT_EQ(parsed.value().diagnostics.force_closed, 0u);
  std::uint64_t total_calls = 0;
  for (const auto& n : parsed.value().nodes) {
    for (const auto& fn : n.functions) {
      if (fn.name.rfind("stress_region_", 0) == 0) total_calls += fn.calls;
    }
  }
  EXPECT_EQ(total_calls, static_cast<std::uint64_t>(kThreads) * kRegionsPerThread);
  session.clear_nodes();
}

TEST(Concurrency, RecordsWhileTempdAdvancesSharedNode) {
  // Threads bound to all four cores of one node while tempd advances
  // its thermal model at high rate: exercising the meter/advance locks.
  auto config = tempest::simnode::make_node_config(
      tempest::simnode::NodeKind::kOpteron);
  config.package.time_scale = 40.0;
  tempest::simnode::SimNode node(config);
  auto& session = Session::instance();
  session.clear_nodes();
  session.register_sim_node(&node);
  tempest::core::SessionConfig sc;
  sc.sample_hz = 200.0;
  sc.bind_affinity = false;
  ASSERT_TRUE(session.start(sc));

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&, c] {
      auto& meter = node.core_meter(static_cast<std::size_t>(c));
      while (!stop.load(std::memory_order_relaxed)) {
        meter.set_busy(tempest::rdtsc());
        meter.set_idle(tempest::rdtsc());
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  stop.store(true);
  for (auto& th : threads) th.join();
  ASSERT_TRUE(session.stop());

  // Samples collected, none failed, temperatures sane. The sampler
  // schedules against absolute deadlines and skips (and counts)
  // periods an overrunning sweep missed, so under lock contention —
  // or sanitizer slowdown — the raw sample count may dip to the
  // bracketing minimum; the structural oracle is that every elapsed
  // period is accounted for as either a tick or a counted miss, and
  // every tick swept all six sensors.
  const auto& trace = session.last_trace();
  const auto& stats = session.tempd_stats();
  EXPECT_GE(trace.temp_samples.size(), 6u * 2u);  // first + final tick
  EXPECT_EQ(stats.read_errors, 0u);
  EXPECT_GE(stats.ticks + stats.missed_ticks, 70u);  // ~80 periods in 400ms
  EXPECT_EQ(trace.temp_samples.size(), 6u * stats.ticks);
  for (const auto& s : trace.temp_samples) {
    EXPECT_GT(s.temp_c, 0.0);
    EXPECT_LT(s.temp_c, 120.0);
  }
  session.clear_nodes();
}

TEST(Concurrency, DrainedAndMergedTraceSatisfiesLintInvariants) {
  // The one-pass drain (per-thread chunks merged straight into the
  // trace, each chunk unmapped once merged) must emit traces that
  // satisfy every tempest-lint invariant: monotonic per-thread
  // timestamps, balanced entry/exit nesting, conserved inclusive time,
  // resolvable references. Run under TSan via the concurrency label.
  auto config = tempest::simnode::make_node_config(
      tempest::simnode::NodeKind::kOpteron);
  tempest::simnode::SimNode node(config);
  auto& session = Session::instance();
  session.clear_nodes();
  session.register_sim_node(&node);
  tempest::core::SessionConfig sc;
  sc.sample_hz = 50.0;
  sc.bind_affinity = false;
  ASSERT_TRUE(session.start(sc));

  constexpr int kThreads = 6;
  constexpr int kRegionsPerThread = 5'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      (void)Session::instance().attach_current_thread(
          0, static_cast<std::uint16_t>(t % 4));
      const std::string outer = "lint_outer_" + std::to_string(t);
      for (int i = 0; i < kRegionsPerThread; ++i) {
        tempest::ScopedRegion region(outer);
        tempest::ScopedRegion nested("lint_inner");
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE(session.stop());

  const tempest::trace::Trace trace = session.take_trace();
  // The drain merges in time order: stop() hands back sorted events.
  EXPECT_TRUE(std::is_sorted(
      trace.fn_events.begin(), trace.fn_events.end(),
      [](const auto& a, const auto& b) { return a.tsc < b.tsc; }));
  EXPECT_EQ(trace.fn_events.size(),
            static_cast<std::size_t>(kThreads) * kRegionsPerThread * 4);

  const auto report = tempest::analysis::lint_trace(trace);
  EXPECT_EQ(report.error_count, 0u) << tempest::analysis::to_json(report);
  session.clear_nodes();
}

TEST(Concurrency, SyntheticAddrRegistryIsThreadSafe) {
  auto& session = Session::instance();
  constexpr int kThreads = 8;
  std::vector<std::uint64_t> addrs(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // All threads race to register the same name...
      addrs[static_cast<std::size_t>(t)] = session.synthetic_addr("racy_name");
      // ...and some distinct ones.
      (void)session.synthetic_addr("private_" + std::to_string(t));
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(addrs[static_cast<std::size_t>(t)], addrs[0]);
  }
}

}  // namespace
