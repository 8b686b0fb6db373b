// Tempd lifecycle regressions: stop() must be idempotent, safe when
// the sampler thread never started, safe from many threads at once,
// and start/stop cycles must be repeatable on one instance.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "core/tempd.hpp"
#include "simnode/cluster.hpp"

namespace {

using tempest::core::NodeBinding;
using tempest::core::Tempd;

TEST(Tempd, StopBeforeStartIsSafe) {
  Tempd tempd;
  EXPECT_FALSE(tempd.running());
  tempd.stop();  // thread never started; must not crash or hang
  tempd.stop();
  EXPECT_FALSE(tempd.running());
}

TEST(Tempd, StopIsIdempotent) {
  Tempd tempd;
  std::vector<NodeBinding> no_nodes;
  tempd.start(500.0, &no_nodes);
  EXPECT_TRUE(tempd.running());
  tempd.stop();
  EXPECT_FALSE(tempd.running());
  // At least the final bracketing sample; the initial one too unless
  // stop() won the race before the loop's first iteration.
  const auto ticks = tempd.stats().ticks;
  EXPECT_GE(ticks, 1u);
  tempd.stop();          // second stop: no double-join, stats untouched
  EXPECT_EQ(tempd.stats().ticks, ticks);
}

TEST(Tempd, ConcurrentStopsJoinExactlyOnce) {
  Tempd tempd;
  std::vector<NodeBinding> no_nodes;
  tempd.start(500.0, &no_nodes);
  std::vector<std::thread> stoppers;
  for (int i = 0; i < 8; ++i) {
    stoppers.emplace_back([&tempd] { tempd.stop(); });
  }
  for (auto& t : stoppers) t.join();
  EXPECT_FALSE(tempd.running());
  tempd.stop();  // and once more after the dust settles
}

TEST(Tempd, StartWhileRunningIsANoOp) {
  Tempd tempd;
  std::vector<NodeBinding> no_nodes;
  tempd.start(500.0, &no_nodes);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  tempd.start(500.0, &no_nodes);  // ignored; sampler keeps its state
  tempd.stop();
  EXPECT_GE(tempd.stats().ticks, 1u);
}

TEST(Tempd, RestartCyclesCollectFreshSamples) {
  tempest::simnode::ClusterConfig cc;
  cc.nodes = 1;
  cc.kind = tempest::simnode::NodeKind::kX86Basic;
  cc.time_scale = 30.0;
  tempest::simnode::Cluster cluster(cc);
  auto& node = cluster.node(0);

  NodeBinding binding;
  binding.node_id = 0;
  binding.hostname = node.hostname();
  binding.backend = &node.sensor_backend();
  binding.sim = &node;
  binding.sensors = binding.backend->enumerate();
  std::vector<NodeBinding> nodes;
  nodes.push_back(std::move(binding));

  Tempd tempd;
  for (int cycle = 0; cycle < 3; ++cycle) {
    tempd.start(200.0, &nodes);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    tempd.stop();
    // Each cycle starts from a clean slate (start() clears the previous
    // run) and ends with at least the bracketing samples.
    EXPECT_FALSE(tempd.samples().empty()) << "cycle " << cycle;
    EXPECT_EQ(tempd.stats().samples, tempd.samples().size());
    EXPECT_EQ(tempd.stats().read_errors, 0u);
  }
}

TEST(Tempd, DestructorStopsARunningSampler) {
  std::vector<NodeBinding> no_nodes;
  {
    Tempd tempd;
    tempd.start(500.0, &no_nodes);
    EXPECT_TRUE(tempd.running());
  }  // ~Tempd calls stop(); must join, not crash or leak the thread
}

TEST(Tempd, AbsoluteCadenceHoldsWithoutDrift) {
  // 100 Hz over ~300 ms with an empty sweep: the absolute-deadline
  // schedule must land close to elapsed/period ticks, with every
  // shortfall declared in missed_ticks rather than smeared into drift.
  Tempd tempd;
  std::vector<NodeBinding> no_nodes;
  const auto t0 = std::chrono::steady_clock::now();
  tempd.start(100.0, &no_nodes);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  tempd.stop();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const auto& stats = tempd.stats();
  const auto deadlines = static_cast<std::uint64_t>(elapsed * 100.0);
  // Ticked + missed covers every elapsed deadline (the final
  // bracketing tick, the partial trailing period, and stop()'s join
  // window allow a few deadlines of slack).
  EXPECT_GE(stats.ticks + stats.missed_ticks + 4, deadlines);
  EXPECT_GE(stats.ticks, 2u);  // immediate first tick + final tick
  EXPECT_EQ(stats.read_errors, 0u);
  EXPECT_EQ(stats.samples, 0u);  // no nodes, no sensors
}

TEST(Tempd, StopWakesASleepingSampler) {
  // At 1 Hz the sampler spends nearly all its time waiting for the next
  // deadline; stop() must wake it, not wait for the wait to end. Each
  // stop lands 21 ms after start, where a sampler sleeping in 20 ms
  // slices would still have ~19 ms to go. The median over the cycles
  // keeps one slow join on a busy host from deciding.
  Tempd tempd;
  std::vector<NodeBinding> no_nodes;
  std::vector<double> stop_ms;
  for (int cycle = 0; cycle < 9; ++cycle) {
    tempd.start(1.0, &no_nodes);
    std::this_thread::sleep_for(std::chrono::milliseconds(21));
    const auto t0 = std::chrono::steady_clock::now();
    tempd.stop();
    stop_ms.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
    EXPECT_GE(tempd.stats().ticks, 2u) << "cycle " << cycle;  // first + final
  }
  std::nth_element(stop_ms.begin(), stop_ms.begin() + 4, stop_ms.end());
  EXPECT_LT(stop_ms[4], 5.0) << "median stop() latency in ms";
}

TEST(Tempd, SlowSweepCountsMissesInsteadOfDrifting) {
  // A sweep hook that overruns the 10 ms period forces misses; the
  // scheduler must declare them. With a ~25 ms on_tick hook at 100 Hz,
  // each tick skips ~2 deadlines.
  Tempd tempd;
  tempest::simnode::ClusterConfig cc;
  cc.nodes = 1;
  tempest::simnode::Cluster cluster(cc);
  std::vector<NodeBinding> nodes;
  NodeBinding binding;
  binding.node_id = 0;
  binding.backend = &cluster.node(0).sensor_backend();
  binding.sim = &cluster.node(0);
  binding.on_tick = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  };
  nodes.push_back(std::move(binding));
  tempd.start(100.0, &nodes);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  tempd.stop();
  const auto& stats = tempd.stats();
  EXPECT_GT(stats.missed_ticks, 0u);
  EXPECT_GE(stats.missed_ticks, stats.ticks);  // >=2 misses per tick here
}

}  // namespace
