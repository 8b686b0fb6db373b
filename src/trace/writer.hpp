// Binary trace serialisation.
//
// Format v2: fixed header (magic, version, tsc rate, executable path),
// length-prefixed metadata sections (nodes, sensors, threads, synthetic
// symbols), then three bulk record sections (fn_events, temp_samples,
// clock_syncs). Each bulk section is framed as
//
//   count        u64
//   record_size  u32   (must match the layout below; corruption check)
//   payload      count * record_size bytes, packed little-endian
//
// and is written/read through a 256 KiB staging buffer in chunks
// instead of per-field stream calls — the fn_events section of a
// multi-node MPI run holds millions of records and dominates trace I/O. All integers
// are little-endian; doubles are IEEE-754 bit patterns stored as u64.
// The format is the on-disk hand-off between the profiled run and the
// Tempest parser, mirroring the paper's "profiling information ... is
// aggregated into a trace file".
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "common/status.hpp"
#include "trace/trace.hpp"

namespace tempest::trace {

inline constexpr std::uint64_t kTraceMagic = 0x5443'5254'5350'4d54ULL;  // "TMPSTRCT"
/// v1: per-field records. v2: bulk packed record sections (see above).
/// Readers reject any version other than the one they were built for.
inline constexpr std::uint32_t kTraceVersion = 2;

/// Packed on-disk record sizes (bytes) for the bulk sections.
inline constexpr std::uint32_t kFnEventRecordSize = 8 + 8 + 4 + 2 + 1;    // 23
inline constexpr std::uint32_t kTempSampleRecordSize = 8 + 8 + 2 + 2;     // 20
inline constexpr std::uint32_t kClockSyncRecordSize = 8 + 8 + 2;          // 18

/// Optional RUNSTATS trailer after the clock-sync section:
///
///   marker       u32   'RSTA' (absent in older v2 traces — readers
///                       treat a missing marker as "no runstats")
///   record_size  u32   (corruption check, like the bulk sections)
///   payload      20 x 8 bytes, RunStats fields in declaration order
///
/// The marker's little-endian bytes ("RSTA") cannot be confused with
/// the start of another trace (magic begins "TMPS"), so a reader that
/// peeks 4 bytes and finds neither can still report trailing garbage
/// byte-exactly. The record grew from 15 to 20 fields when the
/// admission pipeline landed; readers accept both sizes and zero-fill
/// the admission counters for the legacy one.
inline constexpr std::uint32_t kRunStatsMarker = 0x4154'5352;             // "RSTA"
inline constexpr std::uint32_t kRunStatsRecordSize = 20 * 8;              // 160
inline constexpr std::uint32_t kRunStatsRecordSizeLegacy = 15 * 8;        // 120

/// Optional FLTR trailer after RUNSTATS, present when a TEMPEST_FILTER
/// suppression set was active during recording:
///
///   marker       u32   'FLTR'
///   resolved     u64   rules resolved to runtime addresses
///   source       u32 length + bytes (filter file path)
///   count        u32
///   count x      u32 length + bytes (raw suppressed symbol names)
///
/// Trailers are self-describing by marker, so RUNSTATS-less traces can
/// still carry a filter declaration and readers dispatch on the peeked
/// marker until EOF.
inline constexpr std::uint32_t kFilterMarker = 0x5254'4C46;               // "FLTR"

/// Serialise a complete trace to a stream. Returns error on I/O failure.
Status write_trace(std::ostream& out, const Trace& trace);

/// The bytes write_trace writes, in memory: for small payloads such as
/// the collector's META frame.
std::string encode_trace(const Trace& trace);

/// Convenience: write to a file path (truncates).
Status write_trace_file(const std::string& path, const Trace& trace);

}  // namespace tempest::trace
