// Bulk pack/unpack for the trace-v2 record sections, and the
// little-endian field helpers every part of the trace format shares:
// the header fields, metadata counts, string lengths and section frames
// the writer puts and the reader gets, the trailers, and the collector's
// wire frames all go through store_le / load_le, so the bytes are the
// same on every host.
//
// The reader and writer used to convert one field at a time through
// byte loops — correct everywhere, but the dominant cost of draining a
// section once the I/O is staged. On little-endian hosts the wire
// layout of each record is exactly the leading bytes of its in-memory
// struct (static_asserts in codec.cpp pin the offsets), so a record
// converts with two overlapping fixed-size copies (16 and 8 bytes, or
// 16 and 2), which the compiler emits as unaligned vector moves. This
// header exposes whole-section converters; the portable byte-loop
// implementation stays available under codec::scalar both as the
// big-endian path and as the reference the fuzz tests compare against.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "trace/trace.hpp"

namespace tempest::trace::codec {

/// The little-endian value of type T (an unsigned integer, or double as
/// its IEEE-754 bits) at `p`: the scalar converters, the reader's
/// trailers and the writer's trailers all decode through this one.
template <typename T>
T load_le(const char* p) {
  if constexpr (std::is_floating_point_v<T>) {
    return std::bit_cast<T>(load_le<std::uint64_t>(p));
  } else {
    T v = 0;
    for (std::size_t i = sizeof(T); i-- > 0;) {
      v = static_cast<T>((v << 8) | static_cast<unsigned char>(p[i]));
    }
    return v;
  }
}

/// Store `v` little-endian at `p`; returns the byte after it.
template <typename T>
char* store_le(char* p, T v) {
  if constexpr (std::is_floating_point_v<T>) {
    return store_le(p, std::bit_cast<std::uint64_t>(v));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) p[i] = static_cast<char>(v >> (8 * i));
    return p + sizeof(T);
  }
}

/// Convert `n` tightly packed wire records at `src` into structs.
/// unpack_fn_events returns false when any record carries an invalid
/// kind byte (dst contents are unspecified then) — the per-record
/// validation the scalar reader used to do, hoisted out of the copy.
bool unpack_fn_events(const char* src, std::size_t n, FnEvent* dst);
void unpack_temp_samples(const char* src, std::size_t n, TempSample* dst);
void unpack_clock_syncs(const char* src, std::size_t n, ClockSync* dst);

/// Convert `n` structs into tightly packed wire records at `dst`.
void pack_fn_events(const FnEvent* src, std::size_t n, char* dst);
void pack_temp_samples(const TempSample* src, std::size_t n, char* dst);
void pack_clock_syncs(const ClockSync* src, std::size_t n, char* dst);

/// Portable byte-loop reference implementations (endian-independent).
/// The default entry points above are required to produce field-wise
/// identical results; test_codec_fuzz holds them to that.
namespace scalar {
bool unpack_fn_events(const char* src, std::size_t n, FnEvent* dst);
void unpack_temp_samples(const char* src, std::size_t n, TempSample* dst);
void unpack_clock_syncs(const char* src, std::size_t n, ClockSync* dst);
void pack_fn_events(const FnEvent* src, std::size_t n, char* dst);
void pack_temp_samples(const TempSample* src, std::size_t n, char* dst);
void pack_clock_syncs(const ClockSync* src, std::size_t n, char* dst);
}  // namespace scalar

}  // namespace tempest::trace::codec
