// Trace-format robustness: random round-trips and corruption fuzzing.
// The reader must never crash or hand back garbage silently — truncated
// and bit-flipped inputs either parse to a structurally valid trace or
// fail with a Status.
#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "pipeline/analysis.hpp"
#include "trace/reader.hpp"
#include "trace/writer.hpp"

namespace {

using namespace tempest::trace;

Trace random_trace(std::mt19937& rng) {
  std::uniform_int_distribution<int> small(0, 8);
  std::uniform_int_distribution<std::uint64_t> tsc(0, 1'000'000'000ULL);
  std::uniform_real_distribution<double> temp(20.0, 60.0);

  Trace t;
  t.tsc_ticks_per_second = 1e9;
  t.executable = "/fuzz/exe";
  t.load_bias = rng();
  const int nodes = 1 + small(rng) % 4;
  for (int n = 0; n < nodes; ++n) {
    t.nodes.push_back({static_cast<std::uint16_t>(n), "node" + std::to_string(n)});
    const int sensors = 1 + small(rng) % 3;
    for (int s = 0; s < sensors; ++s) {
      t.sensors.push_back({static_cast<std::uint16_t>(n),
                           static_cast<std::uint16_t>(s),
                           "s" + std::to_string(s), 1.0});
    }
  }
  const int threads = 1 + small(rng) % 3;
  for (int th = 0; th < threads; ++th) {
    t.threads.push_back({static_cast<std::uint32_t>(th),
                         static_cast<std::uint16_t>(th % nodes), 0});
  }
  const int events = small(rng) * 20;
  for (int e = 0; e < events; ++e) {
    t.fn_events.push_back({tsc(rng), 0x1000 + static_cast<std::uint64_t>(small(rng)),
                           static_cast<std::uint32_t>(small(rng) % threads),
                           static_cast<std::uint16_t>(small(rng) % nodes),
                           (e % 2 == 0) ? FnEventKind::kEnter : FnEventKind::kExit});
  }
  const int samples = small(rng) * 10;
  for (int s = 0; s < samples; ++s) {
    t.temp_samples.push_back({tsc(rng), temp(rng),
                              static_cast<std::uint16_t>(small(rng) % nodes), 0});
  }
  for (int c = 0; c < small(rng); ++c) {
    t.clock_syncs.push_back({tsc(rng), tsc(rng),
                             static_cast<std::uint16_t>(small(rng) % nodes)});
  }
  t.synthetic_symbols.push_back({kSyntheticAddrBase, "fuzz_region"});
  return t;
}

class TraceFuzz : public ::testing::TestWithParam<int> {};

TEST_P(TraceFuzz, RoundTripIsLossless) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  const Trace original = random_trace(rng);
  std::stringstream buffer;
  ASSERT_TRUE(write_trace(buffer, original));
  auto loaded = read_trace(buffer);
  ASSERT_TRUE(loaded.is_ok()) << loaded.message();
  const Trace& t = loaded.value();
  EXPECT_EQ(t.nodes.size(), original.nodes.size());
  EXPECT_EQ(t.sensors.size(), original.sensors.size());
  EXPECT_EQ(t.threads.size(), original.threads.size());
  ASSERT_EQ(t.fn_events.size(), original.fn_events.size());
  ASSERT_EQ(t.temp_samples.size(), original.temp_samples.size());
  EXPECT_EQ(t.clock_syncs.size(), original.clock_syncs.size());
  for (std::size_t i = 0; i < t.fn_events.size(); ++i) {
    EXPECT_EQ(t.fn_events[i].tsc, original.fn_events[i].tsc);
    EXPECT_EQ(t.fn_events[i].addr, original.fn_events[i].addr);
    EXPECT_EQ(t.fn_events[i].kind, original.fn_events[i].kind);
  }
  for (std::size_t i = 0; i < t.temp_samples.size(); ++i) {
    EXPECT_DOUBLE_EQ(t.temp_samples[i].temp_c, original.temp_samples[i].temp_c);
  }
}

TEST_P(TraceFuzz, TruncationAtEveryBoundaryFailsCleanly) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  const Trace original = random_trace(rng);
  std::stringstream buffer;
  ASSERT_TRUE(write_trace(buffer, original));
  const std::string full = buffer.str();

  std::uniform_int_distribution<std::size_t> cut_dist(0, full.size() - 1);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t cut = cut_dist(rng);
    std::stringstream damaged(full.substr(0, cut));
    auto result = read_trace(damaged);  // must not crash
    if (result.is_ok()) {
      // Only acceptable if the cut landed beyond all payload (never,
      // since we cut strictly inside) — so a success here is a bug.
      ADD_FAILURE() << "truncated trace at " << cut << "/" << full.size()
                    << " parsed successfully";
    } else {
      EXPECT_FALSE(result.message().empty());
    }
  }
}

TEST_P(TraceFuzz, BitFlipsNeverCrash) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) + 1000);
  const Trace original = random_trace(rng);
  std::stringstream buffer;
  ASSERT_TRUE(write_trace(buffer, original));
  std::string bytes = buffer.str();

  std::uniform_int_distribution<std::size_t> pos_dist(0, bytes.size() - 1);
  std::uniform_int_distribution<int> bit_dist(0, 7);
  for (int trial = 0; trial < 60; ++trial) {
    std::string mutated = bytes;
    // Flip 1-3 random bits.
    for (int f = 0; f <= trial % 3; ++f) {
      mutated[pos_dist(rng)] ^= static_cast<char>(1 << bit_dist(rng));
    }
    std::stringstream damaged(mutated);
    auto result = read_trace(damaged);
    if (result.is_ok()) {
      // Structurally valid result: the analysis path — alignment, the
      // cross-node order stage, the fold — must also survive whatever
      // the flip produced, with a profile or an error Status.
      const Trace t = std::move(result).value();
      (void)tempest::pipeline::analyze_trace(t);
    }
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceFuzz, ::testing::Range(0, 10));

}  // namespace
