// Shared fixture for the collector tests: one session's synthetic
// trace and the offline oracle a collector fold must reproduce.
#pragma once

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "collectd/collector.hpp"
#include "pipeline/rank_fanin.hpp"
#include "pipeline/sinks.hpp"
#include "pipeline/stage.hpp"
#include "trace/trace.hpp"

namespace tempest::collectd_test {

/// One session's synthetic trace: its own node/thread/sensor ids
/// (disjoint across sessions, like real per-rank recordings), no clock
/// syncs (single clock domain — the collector folds raw timestamps, so
/// sync-free sessions make the offline comparison exact), time-sorted.
inline trace::Trace session_trace(std::uint16_t id, std::size_t pairs) {
  using namespace trace;
  Trace t;
  t.tsc_ticks_per_second = 1e9;
  t.executable = "fleet_app";  // nonexistent: synthetic names resolve
  t.nodes = {{id, "host" + std::to_string(id)}};
  t.sensors = {{id, 0, "cpu", 0.0}};
  t.threads = {{id, id, 0}};
  const std::uint64_t kShared = kSyntheticAddrBase + 1;
  const std::uint64_t kOwn = kSyntheticAddrBase + 100 + id;
  t.synthetic_symbols = {{kShared, "shared_fn"},
                         {kOwn, "own_fn_" + std::to_string(id)}};

  const std::uint64_t base = 1000 + id * 7;
  for (std::size_t p = 0; p < pairs; ++p) {
    const std::uint64_t at = base + p * 1000;
    const std::uint64_t fn = (p % 2 == 0) ? kShared : kOwn;
    t.fn_events.push_back({at, fn, id, id, FnEventKind::kEnter});
    t.fn_events.push_back({at + 400 + id, fn, id, id, FnEventKind::kExit});
  }
  for (std::size_t s = 0; s < pairs / 4 + 1; ++s) {
    t.temp_samples.push_back(
        {base + s * 4000, 40.0 + id * 0.1 + s * 0.5, id, 0});
  }
  t.sort_by_time();

  t.run_stats.present = true;
  t.run_stats.events_recorded = t.fn_events.size();
  t.run_stats.calls_observed = t.fn_events.size();
  t.run_stats.tempd_samples = t.temp_samples.size();
  t.run_stats.threads_registered = 1;
  t.run_stats.wall_seconds = 0.5;
  t.run_stats.tempd_cpu_seconds = 0.001;
  return t;
}

/// Leave one activation open at BYE, then take one more sample: the
/// last sample comes after the last event, so the open activation closes
/// at that sample. A fold whose run bounds ignore samples closes it at
/// its own enter instead and reports a different time.
inline void leave_open_at_bye(trace::Trace* t) {
  using namespace trace;
  const ThreadInfo& th = t->threads.front();
  const std::uint64_t kOpen = kSyntheticAddrBase + 50;
  const std::uint64_t last = t->fn_events.back().tsc;
  t->synthetic_symbols.push_back({kOpen, "open_at_bye"});
  t->fn_events.push_back({last + 100, kOpen, th.thread_id, th.node_id, FnEventKind::kEnter});
  t->temp_samples.push_back({last + 5000, 45.0, th.node_id, 0});
  t->run_stats.events_recorded = t->fn_events.size();
  t->run_stats.calls_observed = t->fn_events.size();
  t->run_stats.tempd_samples = t->temp_samples.size();
  t->sort_by_time();  // refreshes the cached bounds
}

/// Every field of two fleet rollups, doubles compared exactly: the
/// collector's calls-and-time fold must give the offline fold's numbers,
/// not numbers near them.
inline void expect_same_fleet(const std::map<std::string, collectd::FleetFunction>& got,
                              const std::map<std::string, collectd::FleetFunction>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [name, fn] : want) {
    const auto it = got.find(name);
    ASSERT_NE(it, got.end()) << name;
    const collectd::FleetFunction& g = it->second;
    EXPECT_EQ(g.calls, fn.calls) << name;
    EXPECT_EQ(g.total_time_s, fn.total_time_s) << name;
    EXPECT_EQ(g.sessions, fn.sessions) << name;
    EXPECT_EQ(g.time.count, fn.time.count) << name;
    EXPECT_EQ(g.time.mean, fn.time.mean) << name;
    EXPECT_EQ(g.time.variance(), fn.time.variance()) << name;
  }
}

/// Offline reference: RankFanIn over the written session files, folded
/// with the same fleet fold the collector applies.
inline std::map<std::string, collectd::FleetFunction> offline_fleet(
    const std::vector<std::string>& paths) {
  auto opened = pipeline::RankFanIn::open(paths);
  EXPECT_TRUE(opened.is_ok()) << opened.message();
  auto fan = std::move(opened).value();
  pipeline::AnalysisSink sink;
  const Status ran = pipeline::run_pipeline(&fan, {}, {&sink});
  EXPECT_TRUE(ran) << ran.message();
  std::map<std::string, collectd::FleetFunction> fleet;
  collectd::fold_profile(sink.result().profile, &fleet);
  return fleet;
}

}  // namespace tempest::collectd_test
