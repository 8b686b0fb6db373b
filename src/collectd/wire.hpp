// Collector wire protocol: framing and payload codecs.
//
// A recording session streams to tempest-collectd as a sequence of
// length-prefixed frames over a byte stream (Unix-domain socket or
// TCP). Every frame is
//
//   magic    "TC"  (2 bytes — catches strangers connecting to the port)
//   type     u8    (FrameType below)
//   flags    u8    (reserved, 0)
//   length   u32   payload bytes, little-endian
//   payload  length bytes
//
// Payloads reuse the trace-v2 packed record layout (trace/codec.hpp),
// so the collector unpacks sections with the same SIMD converters the
// file reader uses. Heartbeats stream live during the run; the bulk
// sections ship once the trace is sealed at session stop, after a META
// frame: a full metadata-only trace-v2 image with the RUNSTATS and
// FLTR trailers, which the fold needs before any record. SAMPLES ahead
// of EVENTS is the preferred order: the fold then credits each sample
// while it replays the events, and its state stays independent of the
// event count. session_fold.hpp states and enforces the frame order;
// DESIGN.md §14 documents the protocol.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "trace/trace.hpp"

namespace tempest::collectd {

inline constexpr std::uint32_t kProtocolVersion = 1;

enum class FrameType : std::uint8_t {
  kHello = 1,      ///< protocol u32, pid u64, sender name (rest)
  kMeta = 2,       ///< metadata-only trace-v2 image (incl. trailers)
  kHeartbeat = 3,  ///< one heartbeat JSONL line, no trailing newline
  kSyncs = 4,      ///< packed ClockSync records
  kEvents = 5,     ///< packed FnEvent records
  kSamples = 6,    ///< packed TempSample records
  kBye = 7,        ///< events_sent u64, samples_sent u64
};

inline constexpr std::size_t kFrameHeaderBytes = 8;
inline constexpr char kFrameMagic0 = 'T';
inline constexpr char kFrameMagic1 = 'C';

/// Hard ceiling a collector will accept for one frame payload; senders
/// chunk bulk sections well below it (kEventsPerFrame).
inline constexpr std::size_t kDefaultMaxFrameBytes = std::size_t{8} << 20;

/// Bulk records per EVENTS/SAMPLES/SYNCS frame (~1.4 MiB of events —
/// the same granularity as the analysis pipeline's default batch).
inline constexpr std::size_t kRecordsPerFrame = std::size_t{1} << 16;

void encode_frame_header(char out[kFrameHeaderBytes], FrameType type,
                         std::uint32_t payload_len);

struct Frame {
  FrameType type = FrameType::kHello;
  std::string_view payload;  ///< points into the decoded bytes
  std::size_t size = 0;      ///< header plus payload bytes
};

/// kFrame, kNeedMore (`in` ends inside a frame), or a protocol error
/// after which the stream cannot be resynchronised.
enum class FrameRead { kFrame, kNeedMore, kBadMagic, kBadType, kOversized };

/// The frame decoder: checks the header's magic, type and length (the
/// length against `max_payload` before any payload byte arrives), then
/// whether the whole payload is in `in`. Reads nothing outside `in`.
FrameRead read_frame(std::string_view in, std::size_t max_payload, Frame* out);

// -- payload codecs ----------------------------------------------------

struct Hello {
  std::uint32_t protocol = kProtocolVersion;
  std::uint64_t pid = 0;
  std::string name;
};
std::string pack_hello(const Hello& hello);
bool unpack_hello(std::string_view payload, Hello* out);

struct Bye {
  std::uint64_t events_sent = 0;
  std::uint64_t samples_sent = 0;
};
std::string pack_bye(const Bye& bye);
bool unpack_bye(std::string_view payload, Bye* out);

std::string pack_fn_events(const trace::FnEvent* events, std::size_t n);
std::string pack_temp_samples(const trace::TempSample* samples, std::size_t n);
std::string pack_clock_syncs(const trace::ClockSync* syncs, std::size_t n);

/// Append the payload's records to *out. False on a malformed payload
/// (length not a record multiple, or an invalid event kind byte).
bool unpack_fn_events(std::string_view payload, std::vector<trace::FnEvent>* out);
bool unpack_temp_samples(std::string_view payload,
                         std::vector<trace::TempSample>* out);

/// Serialise `header` as a metadata-only trace-v2 image (empty bulk
/// sections, RUNSTATS/FLTR trailers included when present).
std::string pack_meta(const trace::TraceHeader& header);
/// Parse a META payload back into a (bulk-empty) trace.
bool unpack_meta(std::string_view payload, trace::Trace* out);

}  // namespace tempest::collectd
