// Property tests on timeline + attribution over randomly generated,
// well-formed call trees.
#include <gtest/gtest.h>

#include <random>

#include "parser/parse.hpp"
#include "parser/timeline.hpp"

namespace {

using namespace tempest::parser;
using tempest::trace::FnEvent;
using tempest::trace::FnEventKind;
using tempest::trace::Trace;

/// Generate a random balanced call tree on one thread: returns events
/// and the end timestamp.
struct TreeGen {
  std::mt19937 rng;
  std::vector<FnEvent> events;
  std::uint64_t now = 0;

  explicit TreeGen(unsigned seed) : rng(seed) {}

  void call(std::uint64_t addr, int depth) {
    events.push_back({now, addr, 0, 0, FnEventKind::kEnter});
    std::uniform_int_distribution<std::uint64_t> dt(1, 50);
    std::uniform_int_distribution<int> children(0, depth > 0 ? 3 : 0);
    std::uniform_int_distribution<std::uint64_t> addr_dist(1, 6);
    now += dt(rng);
    const int n = children(rng);
    for (int c = 0; c < n; ++c) {
      call(addr_dist(rng), depth - 1);
      now += dt(rng);
    }
    events.push_back({now, addr, 0, 0, FnEventKind::kExit});
    now += dt(rng);
  }
};

class ParserProperty : public ::testing::TestWithParam<int> {};

TEST_P(ParserProperty, InclusiveTimesRespectNesting) {
  TreeGen gen(static_cast<unsigned>(GetParam()));
  gen.call(100, 4);  // root addr 100
  Trace t;
  t.tsc_ticks_per_second = 1e9;
  t.threads = {{0, 0, 0}};
  t.fn_events = gen.events;
  t.sort_by_time();

  TimelineDiagnostics diag;
  const TimelineMap timeline =
      build_timeline(t, &diag, [](std::uint64_t) { return true; });
  EXPECT_EQ(diag.unmatched_exits, 0u);
  EXPECT_EQ(diag.force_closed, 0u);

  const auto& root = timeline.at({0, 100});
  for (const auto& [key, fn] : timeline) {
    // Every function's inclusive time fits inside the root's.
    EXPECT_LE(fn.total_ticks, root.total_ticks) << "addr " << key.second;
    EXPECT_GE(fn.first_begin, root.first_begin) << "addr " << key.second;
    EXPECT_LE(fn.last_end, root.last_end) << "addr " << key.second;
    // Span unions are sorted and disjoint.
    for (std::size_t i = 1; i < fn.spans.size(); ++i) {
      EXPECT_GT(fn.spans[i].begin, fn.spans[i - 1].end - 1);
    }
    // total_ticks equals the union length (single thread: the union is
    // exactly the per-thread activations).
    std::uint64_t union_len = 0;
    for (const auto& iv : fn.spans) union_len += iv.length();
    EXPECT_EQ(fn.total_ticks, union_len) << "addr " << key.second;
  }
}

TEST_P(ParserProperty, EverySampleInsideRootAttributesToRoot) {
  TreeGen gen(static_cast<unsigned>(GetParam()) + 77);
  gen.call(100, 3);
  Trace t;
  t.tsc_ticks_per_second = 1e9;
  t.nodes = {{0, "n"}};
  t.sensors = {{0, 0, "cpu", 1.0}};
  t.threads = {{0, 0, 0}};
  t.fn_events = gen.events;

  // Samples sprinkled across (and slightly beyond) the run.
  std::mt19937 rng(static_cast<unsigned>(GetParam()) + 99);
  std::uniform_int_distribution<std::uint64_t> when(0, gen.now + 20);
  std::size_t inside_root = 0;
  const std::uint64_t root_begin = gen.events.front().tsc;
  std::uint64_t root_end = 0;
  for (const auto& e : gen.events) {
    if (e.addr == 100 && e.kind == FnEventKind::kExit) root_end = e.tsc;
  }
  for (int i = 0; i < 60; ++i) {
    const std::uint64_t at = when(rng);
    t.temp_samples.push_back({at, 40.0, 0, 0});
    if (at >= root_begin && at < root_end) ++inside_root;
  }
  t.sort_by_time();

  ParseOptions options;
  options.profile.min_samples_significant = 0;
  auto parsed = parse_trace(std::move(t), options);
  ASSERT_TRUE(parsed.is_ok());
  const auto* root = parsed.value().find(0, "0x64");  // addr 100 unresolved
  ASSERT_NE(root, nullptr);
  ASSERT_FALSE(root->sensors.empty());
  EXPECT_EQ(root->sensors.front().sample_count, inside_root);
}

TEST_P(ParserProperty, ChildSampleCountsNeverExceedAncestors) {
  TreeGen gen(static_cast<unsigned>(GetParam()) + 31);
  gen.call(100, 4);
  Trace t;
  t.tsc_ticks_per_second = 1e9;
  t.nodes = {{0, "n"}};
  t.sensors = {{0, 0, "cpu", 1.0}};
  t.threads = {{0, 0, 0}};
  t.fn_events = gen.events;
  for (std::uint64_t at = 0; at < gen.now; at += 7) {
    t.temp_samples.push_back({at, 42.0, 0, 0});
  }
  t.sort_by_time();

  ParseOptions options;
  options.profile.min_samples_significant = 0;
  auto parsed = parse_trace(std::move(t), options);
  ASSERT_TRUE(parsed.is_ok());
  const auto& fns = parsed.value().nodes[0].functions;
  ASSERT_FALSE(fns.empty());
  // Functions are sorted by inclusive time; the top one is the root.
  // Inclusive attribution: nobody collects more samples than the root.
  const std::size_t root_samples =
      fns.front().sensors.empty() ? 0 : fns.front().sensors.front().sample_count;
  for (const auto& fn : fns) {
    if (fn.sensors.empty()) continue;
    EXPECT_LE(fn.sensors.front().sample_count, root_samples) << fn.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserProperty, ::testing::Range(0, 15));

}  // namespace
