#include "trace/codec.hpp"

#include <bit>
#include <cstddef>
#include <cstring>

#include "trace/writer.hpp"

namespace tempest::trace::codec {
namespace {

// The little-endian paths below reproduce the wire layout by copying
// leading struct bytes; these asserts pin the struct layouts they rely on. A
// platform that lays the structs out differently fails the build here
// instead of corrupting traces.
static_assert(offsetof(FnEvent, tsc) == 0 && offsetof(FnEvent, addr) == 8 &&
              offsetof(FnEvent, thread_id) == 16 &&
              offsetof(FnEvent, node_id) == 20 &&
              offsetof(FnEvent, kind) == 22 && sizeof(FnEvent) == 24);
static_assert(offsetof(TempSample, tsc) == 0 &&
              offsetof(TempSample, temp_c) == 8 &&
              offsetof(TempSample, node_id) == 16 &&
              offsetof(TempSample, sensor_id) == 18 &&
              sizeof(TempSample) == 24);
static_assert(offsetof(ClockSync, node_tsc) == 0 &&
              offsetof(ClockSync, global_tsc) == 8 &&
              offsetof(ClockSync, node_id) == 16 && sizeof(ClockSync) == 24);
static_assert(sizeof(double) == 8);

constexpr bool kLittleEndian = std::endian::native == std::endian::little;

}  // namespace

namespace scalar {

bool unpack_fn_events(const char* src, std::size_t n, FnEvent* dst) {
  for (std::size_t i = 0; i < n; ++i) {
    const char* p = src + i * kFnEventRecordSize;
    FnEvent& e = dst[i];
    e.tsc = load_le<std::uint64_t>(p);
    e.addr = load_le<std::uint64_t>(p + 8);
    e.thread_id = load_le<std::uint32_t>(p + 16);
    e.node_id = load_le<std::uint16_t>(p + 20);
    const auto kind = static_cast<unsigned char>(p[22]);
    if (kind != 1 && kind != 2) return false;
    e.kind = static_cast<FnEventKind>(kind);
  }
  return true;
}

void unpack_temp_samples(const char* src, std::size_t n, TempSample* dst) {
  for (std::size_t i = 0; i < n; ++i) {
    const char* p = src + i * kTempSampleRecordSize;
    TempSample& s = dst[i];
    s.tsc = load_le<std::uint64_t>(p);
    s.temp_c = load_le<double>(p + 8);
    s.node_id = load_le<std::uint16_t>(p + 16);
    s.sensor_id = load_le<std::uint16_t>(p + 18);
  }
}

void unpack_clock_syncs(const char* src, std::size_t n, ClockSync* dst) {
  for (std::size_t i = 0; i < n; ++i) {
    const char* p = src + i * kClockSyncRecordSize;
    ClockSync& c = dst[i];
    c.node_tsc = load_le<std::uint64_t>(p);
    c.global_tsc = load_le<std::uint64_t>(p + 8);
    c.node_id = load_le<std::uint16_t>(p + 16);
  }
}

void pack_fn_events(const FnEvent* src, std::size_t n, char* dst) {
  for (std::size_t i = 0; i < n; ++i) {
    char* p = dst + i * kFnEventRecordSize;
    const FnEvent& e = src[i];
    store_le(p, e.tsc);
    store_le(p + 8, e.addr);
    store_le(p + 16, e.thread_id);
    store_le(p + 20, e.node_id);
    p[22] = static_cast<char>(e.kind);
  }
}

void pack_temp_samples(const TempSample* src, std::size_t n, char* dst) {
  for (std::size_t i = 0; i < n; ++i) {
    char* p = dst + i * kTempSampleRecordSize;
    const TempSample& s = src[i];
    store_le(p, s.tsc);
    store_le(p + 8, s.temp_c);
    store_le(p + 16, s.node_id);
    store_le(p + 18, s.sensor_id);
  }
}

void pack_clock_syncs(const ClockSync* src, std::size_t n, char* dst) {
  for (std::size_t i = 0; i < n; ++i) {
    char* p = dst + i * kClockSyncRecordSize;
    const ClockSync& c = src[i];
    store_le(p, c.node_tsc);
    store_le(p + 8, c.global_tsc);
    store_le(p + 16, c.node_id);
  }
}

}  // namespace scalar

// Wire record == leading struct bytes on little-endian hosts, so each
// record is two overlapping copies. The kind check folds into a
// branchless accumulator so the copy loop never mispredicts on valid
// sections.
bool unpack_fn_events(const char* src, std::size_t n, FnEvent* dst) {
  if (!kLittleEndian) return scalar::unpack_fn_events(src, n, dst);
  unsigned bad = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const char* p = src + i * kFnEventRecordSize;
    char* q = reinterpret_cast<char*>(dst + i);
    std::memcpy(q, p, 16);
    std::memcpy(q + 15, p + 15, 8);  // bytes 15..22: thread_id tail, node_id, kind
    bad |= static_cast<unsigned>(
        (static_cast<unsigned>(static_cast<unsigned char>(p[22])) - 1u) > 1u);
  }
  return bad == 0;
}

void unpack_temp_samples(const char* src, std::size_t n, TempSample* dst) {
  if (!kLittleEndian) return scalar::unpack_temp_samples(src, n, dst);
  for (std::size_t i = 0; i < n; ++i) {
    const char* p = src + i * kTempSampleRecordSize;
    char* q = reinterpret_cast<char*>(dst + i);
    std::memcpy(q, p, 16);
    std::memcpy(q + 12, p + 12, 8);  // bytes 12..19: temp tail, node_id, sensor_id
  }
}

void unpack_clock_syncs(const char* src, std::size_t n, ClockSync* dst) {
  if (!kLittleEndian) return scalar::unpack_clock_syncs(src, n, dst);
  for (std::size_t i = 0; i < n; ++i) {
    const char* p = src + i * kClockSyncRecordSize;
    char* q = reinterpret_cast<char*>(dst + i);
    std::memcpy(q, p, 16);
    std::memcpy(q + 16, p + 16, 2);
  }
}

void pack_fn_events(const FnEvent* src, std::size_t n, char* dst) {
  if (!kLittleEndian) return scalar::pack_fn_events(src, n, dst);
  for (std::size_t i = 0; i < n; ++i) {
    const char* q = reinterpret_cast<const char*>(src + i);
    char* p = dst + i * kFnEventRecordSize;
    std::memcpy(p, q, 16);
    std::memcpy(p + 15, q + 15, 8);
  }
}

void pack_temp_samples(const TempSample* src, std::size_t n, char* dst) {
  if (!kLittleEndian) return scalar::pack_temp_samples(src, n, dst);
  for (std::size_t i = 0; i < n; ++i) {
    const char* q = reinterpret_cast<const char*>(src + i);
    char* p = dst + i * kTempSampleRecordSize;
    std::memcpy(p, q, 16);
    std::memcpy(p + 12, q + 12, 8);
  }
}

void pack_clock_syncs(const ClockSync* src, std::size_t n, char* dst) {
  if (!kLittleEndian) return scalar::pack_clock_syncs(src, n, dst);
  for (std::size_t i = 0; i < n; ++i) {
    const char* q = reinterpret_cast<const char*>(src + i);
    char* p = dst + i * kClockSyncRecordSize;
    std::memcpy(p, q, 16);
    std::memcpy(p + 16, q + 16, 2);
  }
}

}  // namespace tempest::trace::codec
