// The trace-v2 codec against its portable scalar reference.
//
// The default entry points (a little-endian copy on little-endian
// hosts) must be field-wise indistinguishable from codec::scalar
// on every input — including hostile ones: random wire bytes, invalid
// kind bytes at every position, zero/one/odd record counts. Pack output
// is compared byte for byte (the wire layout is fully specified);
// unpacked structs are compared field by field (padding bytes are not
// part of the contract).
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "trace/codec.hpp"
#include "trace/trace.hpp"
#include "trace/writer.hpp"

namespace {

using namespace tempest::trace;

void expect_same_fn(const FnEvent& a, const FnEvent& b, std::size_t i) {
  EXPECT_EQ(a.tsc, b.tsc) << "record " << i;
  EXPECT_EQ(a.addr, b.addr) << "record " << i;
  EXPECT_EQ(a.thread_id, b.thread_id) << "record " << i;
  EXPECT_EQ(a.node_id, b.node_id) << "record " << i;
  EXPECT_EQ(a.kind, b.kind) << "record " << i;
}

void expect_same_sample(const TempSample& a, const TempSample& b,
                        std::size_t i) {
  EXPECT_EQ(a.tsc, b.tsc) << "record " << i;
  // Bit-exact double compare: the codec moves bytes, it does not do
  // arithmetic, so even NaN payloads must survive untouched.
  EXPECT_EQ(std::memcmp(&a.temp_c, &b.temp_c, sizeof(double)), 0)
      << "record " << i;
  EXPECT_EQ(a.node_id, b.node_id) << "record " << i;
  EXPECT_EQ(a.sensor_id, b.sensor_id) << "record " << i;
}

void expect_same_sync(const ClockSync& a, const ClockSync& b, std::size_t i) {
  EXPECT_EQ(a.node_tsc, b.node_tsc) << "record " << i;
  EXPECT_EQ(a.global_tsc, b.global_tsc) << "record " << i;
  EXPECT_EQ(a.node_id, b.node_id) << "record " << i;
}

std::vector<char> random_bytes(std::mt19937_64& rng, std::size_t n) {
  std::vector<char> bytes(n);
  for (char& b : bytes) b = static_cast<char>(rng() & 0xff);
  return bytes;
}

TEST(CodecFuzz, FnEventUnpackMatchesScalarOnValidPayloads) {
  std::mt19937_64 rng(0xc0dec1u);
  for (const std::size_t n : {0u, 1u, 2u, 3u, 7u, 64u, 1000u, 4097u}) {
    std::vector<char> wire = random_bytes(rng, n * kFnEventRecordSize);
    // Overwrite every kind byte with a valid value so both paths accept.
    for (std::size_t i = 0; i < n; ++i) {
      wire[i * kFnEventRecordSize + 22] =
          static_cast<char>(1 + (rng() & 1));
    }
    std::vector<FnEvent> fast(n), ref(n);
    ASSERT_TRUE(codec::unpack_fn_events(wire.data(), n, fast.data()));
    ASSERT_TRUE(codec::scalar::unpack_fn_events(wire.data(), n, ref.data()));
    for (std::size_t i = 0; i < n; ++i) expect_same_fn(fast[i], ref[i], i);
  }
}

TEST(CodecFuzz, FnEventUnpackRejectsInvalidKindAtEveryPosition) {
  std::mt19937_64 rng(0xc0dec2u);
  const std::size_t n = 37;
  std::vector<char> wire = random_bytes(rng, n * kFnEventRecordSize);
  for (std::size_t i = 0; i < n; ++i) {
    wire[i * kFnEventRecordSize + 22] = static_cast<char>(1 + (rng() & 1));
  }
  for (const unsigned char bad : {0x00, 0x03, 0x7f, 0xff}) {
    for (const std::size_t pos : {std::size_t{0}, n / 2, n - 1}) {
      std::vector<char> corrupt = wire;
      corrupt[pos * kFnEventRecordSize + 22] = static_cast<char>(bad);
      std::vector<FnEvent> fast(n), ref(n);
      EXPECT_FALSE(codec::unpack_fn_events(corrupt.data(), n, fast.data()))
          << "kind " << int(bad) << " at " << pos;
      EXPECT_FALSE(
          codec::scalar::unpack_fn_events(corrupt.data(), n, ref.data()))
          << "kind " << int(bad) << " at " << pos;
    }
  }
}

TEST(CodecFuzz, TempSampleUnpackMatchesScalarOnRandomBytes) {
  std::mt19937_64 rng(0xc0dec3u);
  for (const std::size_t n : {0u, 1u, 5u, 63u, 1024u, 4099u}) {
    const std::vector<char> wire = random_bytes(rng, n * kTempSampleRecordSize);
    std::vector<TempSample> fast(n), ref(n);
    codec::unpack_temp_samples(wire.data(), n, fast.data());
    codec::scalar::unpack_temp_samples(wire.data(), n, ref.data());
    for (std::size_t i = 0; i < n; ++i) expect_same_sample(fast[i], ref[i], i);
  }
}

TEST(CodecFuzz, ClockSyncUnpackMatchesScalarOnRandomBytes) {
  std::mt19937_64 rng(0xc0dec4u);
  for (const std::size_t n : {0u, 1u, 9u, 255u, 4096u}) {
    const std::vector<char> wire = random_bytes(rng, n * kClockSyncRecordSize);
    std::vector<ClockSync> fast(n), ref(n);
    codec::unpack_clock_syncs(wire.data(), n, fast.data());
    codec::scalar::unpack_clock_syncs(wire.data(), n, ref.data());
    for (std::size_t i = 0; i < n; ++i) expect_same_sync(fast[i], ref[i], i);
  }
}

TEST(CodecFuzz, PackMatchesScalarByteForByte) {
  std::mt19937_64 rng(0xc0dec5u);
  const std::size_t n = 1337;  // odd: exercises the last-record tails
  std::vector<FnEvent> events(n);
  std::vector<TempSample> samples(n);
  std::vector<ClockSync> syncs(n);
  for (std::size_t i = 0; i < n; ++i) {
    events[i] = {rng(), rng(), static_cast<std::uint32_t>(rng()),
                 static_cast<std::uint16_t>(rng()),
                 (rng() & 1) ? FnEventKind::kEnter : FnEventKind::kExit};
    samples[i].tsc = rng();
    samples[i].temp_c = static_cast<double>(rng()) * 1e-9;
    samples[i].node_id = static_cast<std::uint16_t>(rng());
    samples[i].sensor_id = static_cast<std::uint16_t>(rng());
    syncs[i] = {rng(), rng(), static_cast<std::uint16_t>(rng())};
  }
  std::vector<char> fast(n * kFnEventRecordSize, 0);
  std::vector<char> ref(n * kFnEventRecordSize, 0);
  codec::pack_fn_events(events.data(), n, fast.data());
  codec::scalar::pack_fn_events(events.data(), n, ref.data());
  EXPECT_EQ(fast, ref);

  fast.assign(n * kTempSampleRecordSize, 0);
  ref.assign(n * kTempSampleRecordSize, 0);
  codec::pack_temp_samples(samples.data(), n, fast.data());
  codec::scalar::pack_temp_samples(samples.data(), n, ref.data());
  EXPECT_EQ(fast, ref);

  fast.assign(n * kClockSyncRecordSize, 0);
  ref.assign(n * kClockSyncRecordSize, 0);
  codec::pack_clock_syncs(syncs.data(), n, fast.data());
  codec::scalar::pack_clock_syncs(syncs.data(), n, ref.data());
  EXPECT_EQ(fast, ref);
}

TEST(CodecFuzz, RoundTripPreservesEveryField) {
  std::mt19937_64 rng(0xc0dec6u);
  for (const std::size_t n : {1u, 2u, 511u, 1000u}) {
    std::vector<FnEvent> events(n);
    for (auto& e : events) {
      e = {rng(), rng(), static_cast<std::uint32_t>(rng()),
           static_cast<std::uint16_t>(rng()),
           (rng() & 1) ? FnEventKind::kEnter : FnEventKind::kExit};
    }
    std::vector<char> wire(n * kFnEventRecordSize);
    codec::pack_fn_events(events.data(), n, wire.data());
    std::vector<FnEvent> back(n);
    ASSERT_TRUE(codec::unpack_fn_events(wire.data(), n, back.data()));
    for (std::size_t i = 0; i < n; ++i) expect_same_fn(events[i], back[i], i);

    std::vector<TempSample> samples(n);
    for (auto& s : samples) {
      s.tsc = rng();
      s.temp_c = static_cast<double>(static_cast<std::int64_t>(rng())) * 1e-6;
      s.node_id = static_cast<std::uint16_t>(rng());
      s.sensor_id = static_cast<std::uint16_t>(rng());
    }
    wire.assign(n * kTempSampleRecordSize, 0);
    codec::pack_temp_samples(samples.data(), n, wire.data());
    std::vector<TempSample> samples_back(n);
    codec::unpack_temp_samples(wire.data(), n, samples_back.data());
    for (std::size_t i = 0; i < n; ++i) {
      expect_same_sample(samples[i], samples_back[i], i);
    }

    std::vector<ClockSync> syncs(n);
    for (auto& s : syncs) {
      s = {rng(), rng(), static_cast<std::uint16_t>(rng())};
    }
    wire.assign(n * kClockSyncRecordSize, 0);
    codec::pack_clock_syncs(syncs.data(), n, wire.data());
    std::vector<ClockSync> syncs_back(n);
    codec::unpack_clock_syncs(wire.data(), n, syncs_back.data());
    for (std::size_t i = 0; i < n; ++i) {
      expect_same_sync(syncs[i], syncs_back[i], i);
    }
  }
}

}  // namespace
