// Trace container, binary round-trip, corruption handling, clock
// alignment.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "trace/align.hpp"
#include "trace/reader.hpp"
#include "trace/trace.hpp"
#include "trace/writer.hpp"

namespace {

using namespace tempest::trace;

Trace sample_trace() {
  Trace t;
  t.tsc_ticks_per_second = 1e9;
  t.executable = "/bin/fake";
  t.load_bias = 0x555500000000ULL;
  t.nodes = {{0, "node1"}, {1, "node2"}};
  t.sensors = {{0, 0, "cpu", 1.0}, {0, 1, "sink", 0.5}, {1, 0, "cpu", 1.0}};
  t.threads = {{0, 0, 0}, {1, 1, 0}};
  t.synthetic_symbols = {{kSyntheticAddrBase, "region_a"}};
  t.fn_events = {
      {100, 0xdead, 0, 0, FnEventKind::kEnter},
      {900, 0xdead, 0, 0, FnEventKind::kExit},
      {200, 0xbeef, 1, 1, FnEventKind::kEnter},
      {800, 0xbeef, 1, 1, FnEventKind::kExit},
  };
  t.temp_samples = {{150, 34.0, 0, 0}, {450, 36.0, 0, 1}, {300, 35.0, 1, 0}};
  t.clock_syncs = {{100, 100, 0}, {1100, 1100, 0}};
  return t;
}

TEST(Trace, SortAndBounds) {
  Trace t = sample_trace();
  t.sort_by_time();
  EXPECT_EQ(t.fn_events.front().tsc, 100u);
  EXPECT_EQ(t.fn_events.back().tsc, 900u);
  EXPECT_EQ(t.start_tsc(), 100u);
  EXPECT_EQ(t.end_tsc(), 900u);
  EXPECT_DOUBLE_EQ(t.seconds_from_start(600), 500e-9);
}

TEST(Trace, EmptyTraceBounds) {
  Trace t;
  EXPECT_EQ(t.start_tsc(), 0u);
  EXPECT_EQ(t.end_tsc(), 0u);
  EXPECT_DOUBLE_EQ(t.seconds_from_start(5), 0.0);
}

TEST(TraceIo, RoundTripPreservesEverything) {
  const Trace original = sample_trace();
  std::stringstream buffer;
  ASSERT_TRUE(write_trace(buffer, original));
  auto loaded = read_trace(buffer.str());
  ASSERT_TRUE(loaded.is_ok()) << loaded.message();
  const Trace& t = loaded.value();

  EXPECT_EQ(t.tsc_ticks_per_second, original.tsc_ticks_per_second);
  EXPECT_EQ(t.executable, original.executable);
  EXPECT_EQ(t.load_bias, original.load_bias);
  ASSERT_EQ(t.nodes.size(), 2u);
  EXPECT_EQ(t.nodes[1].hostname, "node2");
  ASSERT_EQ(t.sensors.size(), 3u);
  EXPECT_EQ(t.sensors[1].name, "sink");
  EXPECT_EQ(t.sensors[1].quant_step_c, 0.5);
  ASSERT_EQ(t.threads.size(), 2u);
  ASSERT_EQ(t.synthetic_symbols.size(), 1u);
  EXPECT_EQ(t.synthetic_symbols[0].name, "region_a");
  ASSERT_EQ(t.fn_events.size(), 4u);
  EXPECT_EQ(t.fn_events[0].addr, 0xdeadu);
  EXPECT_EQ(t.fn_events[1].kind, FnEventKind::kExit);
  ASSERT_EQ(t.temp_samples.size(), 3u);
  EXPECT_DOUBLE_EQ(t.temp_samples[1].temp_c, 36.0);
  ASSERT_EQ(t.clock_syncs.size(), 2u);
}

TEST(TraceIo, RejectsBadMagicAndVersion) {
  EXPECT_FALSE(read_trace("NOT A TRACE FILE AT ALL").is_ok());
}

TEST(TraceIo, HeaderFieldsAreLittleEndian) {
  // The leading bytes of a tiny trace, pinned: header fields and string
  // lengths are little-endian on every host, like the records.
  Trace t;
  t.tsc_ticks_per_second = 1.5e9;  // IEEE-754 bits 0x41d65a0bc0000000
  t.executable = "a.out";
  t.load_bias = 0x0102030405060708;
  const unsigned char want[] = {
      'T', 'M', 'P', 'S', 'T', 'R', 'C', 'T',          // magic
      0x02, 0x00, 0x00, 0x00,                          // version 2
      0x00, 0x00, 0x00, 0xc0, 0x0b, 0x5a, 0xd6, 0x41,  // tsc rate
      0x05, 0x00, 0x00, 0x00, 'a', '.', 'o', 'u', 't', // executable
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // load bias
  };
  const std::string bytes = encode_trace(t);
  ASSERT_GE(bytes.size(), sizeof(want));
  EXPECT_EQ(bytes.substr(0, sizeof(want)),
            std::string(reinterpret_cast<const char*>(want), sizeof(want)));
}

TEST(TraceIo, RejectsTruncation) {
  const Trace original = sample_trace();
  std::stringstream buffer;
  ASSERT_TRUE(write_trace(buffer, original));
  const std::string full = buffer.str();
  // Truncate at several byte positions; all must fail cleanly.
  for (std::size_t cut : {std::size_t{10}, std::size_t{40}, std::size_t{100},
                          full.size() - 3}) {
    EXPECT_FALSE(read_trace(full.substr(0, cut)).is_ok()) << "cut at " << cut;
  }
}

// Byte offsets in a v2 trace with empty executable and no metadata:
// header (magic 8 + version 4 + rate 8 + exe-len 4 + bias 8) = 32,
// four u32 metadata counts = 16, so the fn_events section framing sits
// at [48, 56) (count u64) and [56, 60) (record_size u32).
constexpr std::size_t kMinimalFnCountOffset = 48;
constexpr std::size_t kMinimalFnRecordSizeOffset = 56;

std::string minimal_trace_bytes() {
  Trace t;
  t.fn_events = {{100, 0xaaa, 0, 0, FnEventKind::kEnter},
                 {200, 0xaaa, 0, 0, FnEventKind::kExit}};
  std::stringstream buffer;
  EXPECT_TRUE(write_trace(buffer, t));
  return buffer.str();
}

TEST(TraceIo, RejectsOldVersionWithClearMessage) {
  // A v1 trace (or any foreign version) must be refused up front with a
  // message that names both versions, not misparsed as garbage records.
  std::string bytes = minimal_trace_bytes();
  const std::uint32_t old_version = 1;
  std::memcpy(bytes.data() + sizeof(kTraceMagic), &old_version, sizeof(old_version));
  auto result = read_trace(bytes);
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.message().find("unsupported trace version 1"), std::string::npos)
      << result.message();
  EXPECT_NE(result.message().find(std::to_string(kTraceVersion)), std::string::npos)
      << result.message();
}

TEST(TraceIo, RejectsRecordSizeMismatch) {
  // Corrupt section framing: a record_size the reader was not built for
  // means the payload layout is unknowable.
  std::string bytes = minimal_trace_bytes();
  bytes[kMinimalFnRecordSizeOffset] = static_cast<char>(kFnEventRecordSize + 1);
  auto result = read_trace(bytes);
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.message().find("record size mismatch"), std::string::npos)
      << result.message();
}

TEST(TraceIo, RejectsTruncatedBulkPayload) {
  const std::string bytes = minimal_trace_bytes();
  // Cut inside the first packed fn event record.
  auto result =
      read_trace(bytes.substr(0, kMinimalFnRecordSizeOffset + sizeof(std::uint32_t) + 10));
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.message().find("truncated fn event"), std::string::npos)
      << result.message();
}

TEST(TraceIo, CorruptHugeCountFailsBounded) {
  // A flipped count field must fail at the first missing chunk — the
  // chunked section reader never allocates count * record_size.
  std::string bytes = minimal_trace_bytes();
  const std::uint64_t over_cap = 0xFFFF'FFFF'FFULL;  // > kMaxRecords
  std::memcpy(bytes.data() + kMinimalFnCountOffset, &over_cap, sizeof(over_cap));
  auto result = read_trace(bytes);
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.message().find("oversized"), std::string::npos) << result.message();

  bytes = minimal_trace_bytes();
  const std::uint64_t under_cap = 1ULL << 31;  // plausible but absent payload
  std::memcpy(bytes.data() + kMinimalFnCountOffset, &under_cap, sizeof(under_cap));
  result = read_trace(bytes);
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.message().find("truncated fn event"), std::string::npos)
      << result.message();
}

TEST(TraceIo, CorruptFnEventKindRejected) {
  std::string bytes = minimal_trace_bytes();
  // kind is the last byte of the first packed record.
  const std::size_t kind_offset =
      kMinimalFnRecordSizeOffset + sizeof(std::uint32_t) + kFnEventRecordSize - 1;
  bytes[kind_offset] = 7;
  auto result = read_trace(bytes);
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.message().find("corrupt fn event"), std::string::npos)
      << result.message();
}

TEST(TraceIo, MissingFileErrors) {
  EXPECT_FALSE(read_trace_file("/nonexistent/trace.bin").is_ok());
  EXPECT_FALSE(write_trace_file("/nonexistent/dir/trace.bin", Trace{}).is_ok());
}

TEST(ClockFit, OffsetOnlySingleSync) {
  Trace t;
  t.clock_syncs = {{1000, 5000, 0}};
  const auto fits = fit_clocks(t.clock_syncs);
  ASSERT_EQ(fits.size(), 1u);
  EXPECT_EQ(fits.at(0).to_global(1000), 5000u);
  EXPECT_EQ(fits.at(0).to_global(1500), 5500u);
}

TEST(ClockFit, RecoversOffsetAndDrift) {
  // Node clock runs 2% fast with offset 1e6: node = 1.02*global + 1e6,
  // so global = (node - 1e6) / 1.02.
  Trace t;
  for (std::uint64_t g = 0; g <= 1'000'000'000ULL; g += 100'000'000ULL) {
    const auto node_tsc = static_cast<std::uint64_t>(1.02 * static_cast<double>(g) + 1e6);
    t.clock_syncs.push_back({node_tsc, g, 3});
  }
  const auto fits = fit_clocks(t.clock_syncs);
  ASSERT_TRUE(fits.count(3));
  const auto& fit = fits.at(3);
  // Check round-trip accuracy at an arbitrary point.
  const std::uint64_t node_at = static_cast<std::uint64_t>(1.02 * 567'000'000.0 + 1e6);
  EXPECT_NEAR(static_cast<double>(fit.to_global(node_at)), 567'000'000.0, 2000.0);
}

TEST(AlignClocks, RewritesEventsIntoGlobalDomain) {
  Trace t;
  t.tsc_ticks_per_second = 1e9;
  t.nodes = {{0, "a"}, {1, "b"}};
  t.threads = {{0, 0, 0}, {1, 1, 0}};
  // Node 1's clock is global + 10000.
  t.clock_syncs = {{10000, 0, 1}, {20000, 10000, 1}, {0, 0, 0}, {10000, 10000, 0}};
  t.fn_events = {
      {500, 1, 0, 0, FnEventKind::kEnter},   // node 0: already global
      {10500, 2, 1, 1, FnEventKind::kEnter}, // node 1: global 500
  };
  t.temp_samples = {{10600, 40.0, 1, 0}};
  const ClockMap clocks(fit_clocks(t.clock_syncs));
  clocks.align(&t.fn_events);
  clocks.align(&t.temp_samples);
  EXPECT_EQ(t.fn_events[0].tsc, 500u);
  EXPECT_EQ(t.fn_events[1].tsc, 500u);
  EXPECT_EQ(t.temp_samples[0].tsc, 600u);
}

TEST(AlignClocks, NoSyncsIsIdentity) {
  Trace t;
  t.fn_events = {{123, 1, 0, 0, FnEventKind::kEnter}};
  const ClockMap clocks(fit_clocks(t.clock_syncs));
  EXPECT_TRUE(clocks.empty());
  clocks.align(&t.fn_events);
  EXPECT_EQ(t.fn_events[0].tsc, 123u);
}

// -- RUNSTATS trailer --------------------------------------------------

RunStats sample_run_stats() {
  RunStats rs;
  rs.events_recorded = 123456;
  rs.events_dropped = 7;
  rs.buffer_flushes = 3;
  rs.threads_registered = 4;
  rs.tempd_ticks = 40;
  rs.tempd_missed_ticks = 2;
  rs.tempd_samples = 240;
  rs.tempd_read_errors = 1;
  rs.sensor_read_failures = 1;
  rs.heartbeats = 11;
  rs.peak_rss_kb = 20480;
  rs.wall_seconds = 9.875;
  rs.tempd_cpu_seconds = 0.0625;
  rs.probe_cost_ns_mean = 38.5;
  rs.cadence_jitter_us_mean = 120.25;
  rs.present = true;
  return rs;
}

TEST(RunStatsIo, RoundTripPreservesEveryField) {
  Trace original = sample_trace();
  original.run_stats = sample_run_stats();
  std::stringstream buffer;
  ASSERT_TRUE(write_trace(buffer, original));
  auto loaded = read_trace(buffer.str());
  ASSERT_TRUE(loaded.is_ok()) << loaded.message();
  const RunStats& rs = loaded.value().run_stats;
  ASSERT_TRUE(rs.present);
  EXPECT_EQ(rs.events_recorded, 123456u);
  EXPECT_EQ(rs.events_dropped, 7u);
  EXPECT_EQ(rs.buffer_flushes, 3u);
  EXPECT_EQ(rs.threads_registered, 4u);
  EXPECT_EQ(rs.tempd_ticks, 40u);
  EXPECT_EQ(rs.tempd_missed_ticks, 2u);
  EXPECT_EQ(rs.tempd_samples, 240u);
  EXPECT_EQ(rs.tempd_read_errors, 1u);
  EXPECT_EQ(rs.sensor_read_failures, 1u);
  EXPECT_EQ(rs.heartbeats, 11u);
  EXPECT_EQ(rs.peak_rss_kb, 20480u);
  // Doubles cross the wire bit-exact (memcpy of the IEEE representation).
  EXPECT_EQ(rs.wall_seconds, 9.875);
  EXPECT_EQ(rs.tempd_cpu_seconds, 0.0625);
  EXPECT_EQ(rs.probe_cost_ns_mean, 38.5);
  EXPECT_EQ(rs.cadence_jitter_us_mean, 120.25);
}

TEST(RunStatsIo, AdmissionCountersRoundTrip) {
  Trace original = sample_trace();
  original.run_stats = sample_run_stats();
  original.run_stats.events_suppressed = 1001;
  original.run_stats.events_throttled = 2002;
  original.run_stats.events_overwritten = 3003;
  original.run_stats.calls_observed = 129469;
  original.run_stats.ring_snapshots = 2;
  std::stringstream buffer;
  ASSERT_TRUE(write_trace(buffer, original));
  auto loaded = read_trace(buffer.str());
  ASSERT_TRUE(loaded.is_ok()) << loaded.message();
  const RunStats& rs = loaded.value().run_stats;
  EXPECT_EQ(rs.events_suppressed, 1001u);
  EXPECT_EQ(rs.events_throttled, 2002u);
  EXPECT_EQ(rs.events_overwritten, 3003u);
  EXPECT_EQ(rs.calls_observed, 129469u);
  EXPECT_EQ(rs.ring_snapshots, 2u);
}

TEST(RunStatsIo, LegacyFifteenFieldRecordReadsWithZeroAdmission) {
  // Traces written before the admission counters carry a 120-byte
  // RUNSTATS record. Manufacture one by byte surgery on a current
  // trace: shrink the declared size and truncate the payload.
  Trace original = sample_trace();
  original.run_stats = sample_run_stats();
  original.run_stats.events_suppressed = 999;  // must NOT survive surgery
  std::stringstream buffer;
  ASSERT_TRUE(write_trace(buffer, original));
  std::string bytes = buffer.str();
  const std::size_t record = 4 + 4 + kRunStatsRecordSize;
  ASSERT_GE(bytes.size(), record);
  const std::size_t trailer = bytes.size() - record;
  ASSERT_EQ(static_cast<unsigned char>(bytes[trailer]), 'R');  // "RSTA"
  ASSERT_EQ(static_cast<unsigned char>(bytes[trailer + 1]), 'S');
  std::string legacy = bytes.substr(0, trailer);
  legacy += bytes.substr(trailer, 4);  // marker
  const std::uint32_t size = kRunStatsRecordSizeLegacy;
  legacy.append(reinterpret_cast<const char*>(&size), 4);
  legacy += bytes.substr(trailer + 8, kRunStatsRecordSizeLegacy);

  auto loaded = read_trace(legacy);
  ASSERT_TRUE(loaded.is_ok()) << loaded.message();
  const RunStats& rs = loaded.value().run_stats;
  ASSERT_TRUE(rs.present);
  EXPECT_EQ(rs.events_recorded, 123456u);  // legacy fields intact
  EXPECT_EQ(rs.cadence_jitter_us_mean, 120.25);
  EXPECT_EQ(rs.events_suppressed, 0u);  // admission counters zero-filled
  EXPECT_EQ(rs.events_throttled, 0u);
  EXPECT_EQ(rs.events_overwritten, 0u);
  EXPECT_EQ(rs.calls_observed, 0u);
  EXPECT_EQ(rs.ring_snapshots, 0u);
}

TEST(FilterDeclIo, RoundTripThroughTraceAndFile) {
  Trace original = sample_trace();
  original.filter.present = true;
  original.filter.source = "/etc/tempest/hot.filter";
  original.filter.resolved = 2;
  original.filter.suppressed = {"_ZN4slowEv", "plain_c_fn", "unresolved_fn"};
  std::stringstream buffer;
  ASSERT_TRUE(write_trace(buffer, original));
  auto loaded = read_trace(buffer.str());
  ASSERT_TRUE(loaded.is_ok()) << loaded.message();
  const FilterDecl& fd = loaded.value().filter;
  ASSERT_TRUE(fd.present);
  EXPECT_EQ(fd.source, original.filter.source);
  EXPECT_EQ(fd.resolved, 2u);
  EXPECT_EQ(fd.suppressed, original.filter.suppressed);

  const std::string path = ::testing::TempDir() + "/filter_decl.trace";
  ASSERT_TRUE(write_trace_file(path, original));
  auto from_file = read_trace_file(path);
  ASSERT_TRUE(from_file.is_ok()) << from_file.message();
  EXPECT_TRUE(from_file.value().filter.present);
  EXPECT_EQ(from_file.value().filter.suppressed, original.filter.suppressed);
  std::remove(path.c_str());
}

TEST(FilterDeclIo, AbsentTrailerReadsAsNotPresent) {
  const Trace original = sample_trace();
  std::stringstream buffer;
  ASSERT_TRUE(write_trace(buffer, original));
  auto loaded = read_trace(buffer.str());
  ASSERT_TRUE(loaded.is_ok()) << loaded.message();
  EXPECT_FALSE(loaded.value().filter.present);
}

TEST(FilterDeclIo, AppendMergesRankDeclarations) {
  FilterDecl a;
  a.present = true;
  a.source = "rank0.filter";
  a.resolved = 3;
  a.suppressed = {"alpha", "beta"};
  FilterDecl b;
  b.present = true;
  b.resolved = 5;
  b.suppressed = {"beta", "gamma"};
  a.append(b);
  EXPECT_TRUE(a.present);
  EXPECT_EQ(a.source, "rank0.filter");  // first non-empty wins
  EXPECT_EQ(a.resolved, 5u);            // max across ranks
  ASSERT_EQ(a.suppressed.size(), 3u);   // union, duplicates folded
}

TEST(RunStatsIo, PreRunstatsTracesReadAsAbsent) {
  // A trace written without run stats is byte-identical to the format
  // before the trailer existed — readers must treat it as absent, not
  // as an error and not as zeros-present.
  const Trace original = sample_trace();
  std::stringstream buffer;
  ASSERT_TRUE(write_trace(buffer, original));
  auto loaded = read_trace(buffer.str());
  ASSERT_TRUE(loaded.is_ok()) << loaded.message();
  EXPECT_FALSE(loaded.value().run_stats.present);
}

TEST(RunStatsIo, TruncatedTrailerRejected) {
  Trace original = sample_trace();
  original.run_stats = sample_run_stats();
  std::stringstream buffer;
  ASSERT_TRUE(write_trace(buffer, original));
  const std::string full = buffer.str();
  // Cut inside the trailer payload (after the marker + size words).
  EXPECT_FALSE(read_trace(full.substr(0, full.size() - 16)).is_ok());
}

TEST(RunStatsIo, TrailingGarbageStillRejectedByFileReader) {
  const std::string path = ::testing::TempDir() + "/runstats_garbage.trace";
  Trace original = sample_trace();
  original.run_stats = sample_run_stats();
  ASSERT_TRUE(write_trace_file(path, original));
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "JUNKJUNK";
  }
  // Garbage after a complete trailer is not silently swallowed.
  EXPECT_FALSE(read_trace_file(path).is_ok());
  std::remove(path.c_str());
}

TEST(RunStatsIo, FileRoundTripThroughReaderHeader) {
  const std::string path = ::testing::TempDir() + "/runstats_file.trace";
  Trace original = sample_trace();
  original.run_stats = sample_run_stats();
  ASSERT_TRUE(write_trace_file(path, original));
  auto loaded = read_trace_file(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.message();
  EXPECT_TRUE(loaded.value().run_stats.present);
  EXPECT_EQ(loaded.value().run_stats.events_recorded, 123456u);
  std::remove(path.c_str());
}

TEST(RunStats, AppendFoldsCountsMeansAndWall) {
  RunStats a = sample_run_stats();  // 123456 events, probe mean 38.5
  RunStats b;
  b.present = true;
  b.events_recorded = 123456;  // equal weight: folded mean is the average
  b.tempd_ticks = 10;
  b.tempd_samples = 60;
  b.wall_seconds = 12.5;   // ranks overlap: wall is the max, not the sum
  b.tempd_cpu_seconds = 0.1;  // cpu genuinely adds
  b.probe_cost_ns_mean = 40.5;
  b.cadence_jitter_us_mean = 0.0;
  a.append(b);
  EXPECT_EQ(a.events_recorded, 246912u);
  EXPECT_EQ(a.tempd_ticks, 50u);
  EXPECT_EQ(a.tempd_samples, 300u);
  EXPECT_DOUBLE_EQ(a.wall_seconds, 12.5);
  EXPECT_DOUBLE_EQ(a.tempd_cpu_seconds, 0.1625);
  EXPECT_DOUBLE_EQ(a.probe_cost_ns_mean, 39.5);
  EXPECT_TRUE(a.present);

  // Appending an absent RunStats changes nothing.
  const RunStats before = a;
  a.append(RunStats{});
  EXPECT_EQ(a.events_recorded, before.events_recorded);
  EXPECT_DOUBLE_EQ(a.probe_cost_ns_mean, before.probe_cost_ns_mean);
}

}  // namespace
