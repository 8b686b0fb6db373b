// Trace-format robustness: random round-trips and corruption fuzzing.
// The reader must never crash or hand back garbage silently — truncated
// and bit-flipped inputs either parse to a structurally valid trace or
// fail with a Status.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>

#include "collectd/wire.hpp"
#include "export/run.hpp"
#include "pipeline/analysis.hpp"
#include "pipeline/source.hpp"
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
  auto loaded = read_trace(buffer.str());
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
    auto result = read_trace(full.substr(0, cut));  // must not crash
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
    auto result = read_trace(mutated);
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

/// A trace shaped like a recorded one: events, samples and syncs, then
/// the RUNSTATS and FLTR trailers.
Trace trace_with_trailers() {
  std::mt19937 rng(18);
  Trace t = random_trace(rng);
  for (std::uint64_t i = 0; i < 40; ++i) {
    t.fn_events.push_back({1000 + i, 0x1000 + i % 3, 0, 0,
                           i % 2 == 0 ? FnEventKind::kEnter : FnEventKind::kExit});
  }
  for (std::uint64_t i = 0; i < 8; ++i) t.temp_samples.push_back({1000 + 5 * i, 40.0, 0, 0});
  t.clock_syncs.push_back({1000, 1000, 0});
  t.clock_syncs.push_back({2000, 2000, 0});
  t.run_stats.present = true;
  t.run_stats.events_recorded = t.fn_events.size();
  t.run_stats.events_dropped = 3;
  t.run_stats.wall_seconds = 1.25;
  t.filter.present = true;
  t.filter.source = "hot.filter";
  t.filter.resolved = 1;
  t.filter.suppressed = {"slow_fn", "other_fn"};
  return t;
}

std::string trace_bytes(const Trace& t) {
  std::stringstream buffer;
  EXPECT_TRUE(write_trace(buffer, t));
  return buffer.str();
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Every record a run delivers, and how many batches carried them.
class RecordingSink : public tempest::pipeline::BatchSink {
 public:
  tempest::Status on_batch(const tempest::pipeline::TraceMeta& /*meta*/,
                           const tempest::pipeline::EventBatch& batch) override {
    ++batches;
    for (const FnEvent& e : batch.fn_events) events.push_back({e.tsc, e.addr});
    for (const TempSample& s : batch.temp_samples) samples.push_back({s.tsc, s.temp_c});
    return tempest::Status::ok();
  }
  std::size_t batches = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> events;
  std::vector<std::pair<std::uint64_t, double>> samples;
};

TEST(TraceCut, EveryCutFailsBeforeTheFirstBatchOrDropsOnlyATrailer) {
  // Cut the file at every offset. A cut exactly where an optional
  // trailer starts is a whole trace without that trailer (and any after
  // it); every other cut must fail before the first batch, naming the
  // path.
  const Trace original = trace_with_trailers();
  const std::string full = trace_bytes(original);
  std::size_t filter_bytes = 4 + 8 + 4 + original.filter.source.size() + 4;
  for (const std::string& name : original.filter.suppressed) filter_bytes += 4 + name.size();
  const std::size_t filter_at = full.size() - filter_bytes;
  const std::size_t runstats_at = filter_at - (4 + 4 + kRunStatsRecordSize);
  ASSERT_EQ(full.substr(runstats_at, 4), "RSTA");
  ASSERT_EQ(full.substr(filter_at, 4), "FLTR");

  const std::string path = ::testing::TempDir() + "/trace_cut.trace";
  write_bytes(path, full);
  RecordingSink want;
  {
    tempest::pipeline::TraceInput input;
    ASSERT_TRUE(input.open({path}));
    ASSERT_TRUE(input.run({&want}));
    ASSERT_EQ(want.events.size(), original.fn_events.size());
  }
  std::size_t streamed = 0;
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    SCOPED_TRACE("cut at " + std::to_string(cut) + "/" + std::to_string(full.size()));
    write_bytes(path, full.substr(0, cut));
    tempest::pipeline::TraceInput input;
    RecordingSink got;
    tempest::Status ran = input.open({path});
    if (ran) ran = input.run({&got});
    if (cut == runstats_at || cut == filter_at) {
      ASSERT_TRUE(ran) << ran.message();
      EXPECT_EQ(input.meta().run_stats.present, cut == filter_at);
      EXPECT_FALSE(input.meta().filter.present);
      EXPECT_EQ(got.events, want.events);
      EXPECT_EQ(got.samples, want.samples);
      ++streamed;
      continue;
    }
    ASSERT_FALSE(ran);
    EXPECT_EQ(got.batches, 0u) << "failed after its first batch: " << ran.message();
    EXPECT_EQ(ran.message().rfind(path + ": ", 0), 0u) << ran.message();
  }
  EXPECT_EQ(streamed, 2u);
  std::remove(path.c_str());
}

/// A trace whose metadata outgrows one 64 KiB bulk read: nodes,
/// sensors and threads, then synthetic symbols, four with 20,000-byte
/// names (a 64 KiB step ends inside one) and 700 with 20-40-byte names,
/// then a few events. A cut at every offset re-parses every record
/// before it, so the many short records come last: 4,000 short names
/// would make the cut loop a minute long.
Trace trace_with_large_metadata() {
  std::mt19937 rng(24);
  std::uniform_int_distribution<std::size_t> name_len(20, 40);
  Trace t;
  t.tsc_ticks_per_second = 2.5e9;
  t.executable = "/fuzz/large-metadata-exe";
  t.load_bias = 0x5555'0000'0000ULL;
  for (std::uint16_t n = 0; n < 4; ++n) {
    t.nodes.push_back({n, "node" + std::to_string(n) + ".cluster.example"});
    for (std::uint16_t s = 0; s < 2; ++s) {
      t.sensors.push_back({n, s, "Core " + std::to_string(s), 0.5});
    }
  }
  for (std::uint32_t th = 0; th < 8; ++th) {
    t.threads.push_back({th, static_cast<std::uint16_t>(th % 4),
                         static_cast<std::uint16_t>(th)});
  }
  for (std::uint64_t i = 0; i < 704; ++i) {
    std::string name = "region_" + std::to_string(i) + "_";
    name.resize(i < 4 ? 20'000 : name_len(rng), 'x');
    t.synthetic_symbols.push_back({kSyntheticAddrBase + i, std::move(name)});
  }
  for (std::uint64_t i = 0; i < 4; ++i) {
    t.fn_events.push_back({100 + i, kSyntheticAddrBase + i / 2, 0, 0,
                           i % 2 == 0 ? FnEventKind::kEnter : FnEventKind::kExit});
  }
  return t;
}

/// The cuts of the large-metadata trace, split over interleaved shards
/// that ctest runs in parallel: each cut re-reads every byte before it,
/// so one loop over all ~110,000 offsets takes minutes under the thread
/// sanitizer.
constexpr std::size_t kLargeMetadataShards = 8;
class LargeMetadataCut : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LargeMetadataCut, EveryCutFailsWithItsSectionsError) {
  // The metadata is read in 64 KiB steps and parsed from memory; a cut
  // anywhere before the first event byte must still fail at open, with
  // the error of the section it lands in, and the same bytes as a
  // collector META frame must be refused.
  const Trace original = trace_with_large_metadata();
  const std::string full = trace_bytes(original);
  const auto string_bytes = [](const std::string& s) { return 4 + s.size(); };
  std::size_t nodes_at = 8 + 4 + 8 + string_bytes(original.executable) + 8;
  std::size_t sensors_at = nodes_at + 4;
  for (const NodeInfo& n : original.nodes) sensors_at += 2 + string_bytes(n.hostname);
  const std::size_t threads_at = [&] {
    std::size_t at = sensors_at + 4;
    for (const SensorMeta& s : original.sensors) at += 2 + 2 + 8 + string_bytes(s.name);
    return at;
  }();
  const std::size_t symbols_at = threads_at + 4 + 8 * original.threads.size();
  std::size_t events_at = symbols_at + 4;
  for (const SyntheticSymbol& s : original.synthetic_symbols) {
    events_at += 8 + string_bytes(s.name);
  }
  const std::size_t first_event = events_at + 8 + 4;
  ASSERT_GE(events_at, std::size_t{100} << 10);
  ASSERT_EQ(full.size(), first_event + original.fn_events.size() * kFnEventRecordSize +
                             2 * (8 + 4));
  {
    auto whole = read_trace(full);
    ASSERT_TRUE(whole.is_ok()) << whole.message();
    EXPECT_EQ(whole.value().nodes.back().hostname, original.nodes.back().hostname);
    ASSERT_EQ(whole.value().synthetic_symbols.size(), original.synthetic_symbols.size());
    EXPECT_EQ(whole.value().synthetic_symbols.back().name,
              original.synthetic_symbols.back().name);
    EXPECT_EQ(whole.value().fn_events.size(), original.fn_events.size());
  }

  const auto expected = [&](std::size_t cut) -> std::string {
    if (cut < 8) return "not a Tempest trace (bad magic)";
    if (cut < 12) return "truncated trace header (no version)";
    if (cut < nodes_at) return "truncated trace header";
    if (cut < nodes_at + 4) return "truncated node section";
    if (cut < sensors_at) return "truncated node record";
    if (cut < sensors_at + 4) return "truncated sensor section";
    if (cut < threads_at) return "truncated sensor record";
    if (cut < threads_at + 4) return "truncated thread section";
    if (cut < symbols_at) return "truncated thread record";
    if (cut < symbols_at + 4) return "truncated synthetic-symbol section";
    if (cut < events_at) return "truncated synthetic symbol";
    if (cut < events_at + 8) return "truncated or oversized fn event section";
    if (cut < first_event) return "fn event record size mismatch (corrupt section framing)";
    return "truncated fn event section (file claims 4 records but ends after 0)";
  };
  std::size_t mismatches = 0;
  for (std::size_t cut = GetParam(); cut <= first_event; cut += kLargeMetadataShards) {
    auto opened = TraceStreamReader::open(std::string_view(full.data(), cut));
    const std::string want = expected(cut);
    if (opened.is_ok() || opened.message() != want) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << "cut at " << cut << "/" << full.size() << ": want \"" << want
                      << "\", got " << (opened.is_ok() ? "a trace" : opened.message());
      }
    }
    Trace meta;
    if (tempest::collectd::unpack_meta(std::string_view(full.data(), cut), &meta)) {
      if (++mismatches <= 5) ADD_FAILURE() << "META cut at " << cut << " unpacked";
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

INSTANTIATE_TEST_SUITE_P(Shards, LargeMetadataCut,
                         ::testing::Range<std::size_t>(0, kLargeMetadataShards));

TEST(TraceCut, SyntheticSymbolNameRunningPastTheEndOrOverTheCap) {
  // The last symbol's name length claims the bytes after it, then more
  // than the 1 MiB string cap, with the bytes present: both fail as a
  // truncated synthetic symbol.
  Trace t = trace_with_large_metadata();
  t.fn_events.clear();
  const std::string full = trace_bytes(t);
  const std::size_t len_at = full.size() - 3 * (8 + 4) -
                             t.synthetic_symbols.back().name.size() - 4;
  const auto past_end = static_cast<std::uint32_t>(full.size() - len_at - 4 + 1);
  for (const std::uint32_t len : {past_end, std::uint32_t{(1u << 20) + 1}}) {
    std::string damaged = full;
    std::memcpy(damaged.data() + len_at, &len, sizeof(len));
    if (len > past_end) damaged.resize(len_at + 4 + len);  // the bytes are there
    auto opened = TraceStreamReader::open(damaged);
    ASSERT_FALSE(opened.is_ok()) << "name length " << len;
    EXPECT_EQ(opened.message(), "truncated synthetic symbol") << "name length " << len;
  }
}

TEST(TraceCut, ExportOfADamagedTraceWritesNothing) {
  // A cut inside the RUNSTATS trailer, and 7 bytes appended: both were
  // only noticed after the export had streamed every event.
  const std::string full = trace_bytes(trace_with_trailers());
  const std::size_t runstats_at = full.rfind("RSTA");
  ASSERT_NE(runstats_at, std::string::npos);
  const std::string path = ::testing::TempDir() + "/trace_damaged.trace";
  for (const std::string& damaged :
       {full.substr(0, runstats_at + 20), full + "garbage"}) {
    write_bytes(path, damaged);
    for (const auto format :
         {tempest::exporter::Format::kPerfetto, tempest::exporter::Format::kSpeedscope}) {
      SCOPED_TRACE(std::to_string(damaged.size()) + " bytes, format " +
                   std::to_string(static_cast<int>(format)));
      tempest::exporter::ExportRunOptions options;
      options.format = format;
      options.spool_prefix = ::testing::TempDir() + "/trace_damaged.spool";
      std::ostringstream out;
      const auto ran = tempest::exporter::run_export({path}, out, options);
      ASSERT_FALSE(ran.is_ok());
      EXPECT_EQ(ran.message().rfind(path + ": ", 0), 0u) << ran.message();
      EXPECT_EQ(out.str().size(), 0u);
    }
  }
  std::remove(path.c_str());
}

}  // namespace
