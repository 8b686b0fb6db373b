#include "collectd/wire.hpp"

#include <cstring>
#include <sstream>

#include "trace/codec.hpp"
#include "trace/reader.hpp"
#include "trace/writer.hpp"

namespace tempest::collectd {
namespace {

void put_u32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_u64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  return v;
}

std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  return v;
}

template <typename Record>
std::string pack_records(const Record* src, std::size_t n, std::uint32_t record_size,
                         void (*pack)(const Record*, std::size_t, char*)) {
  std::string out;
  out.resize(n * record_size);
  if (n > 0) pack(src, n, out.data());
  return out;
}

}  // namespace

void encode_frame_header(char out[kFrameHeaderBytes], FrameType type,
                         std::uint32_t payload_len) {
  out[0] = kFrameMagic0;
  out[1] = kFrameMagic1;
  out[2] = static_cast<char>(type);
  out[3] = 0;  // flags
  for (int i = 0; i < 4; ++i) {
    out[4 + i] = static_cast<char>((payload_len >> (8 * i)) & 0xFF);
  }
}

FrameRead read_frame(std::string_view in, std::size_t max_payload, Frame* out) {
  if (in.size() < kFrameHeaderBytes) return FrameRead::kNeedMore;
  if (in[0] != kFrameMagic0 || in[1] != kFrameMagic1) return FrameRead::kBadMagic;
  const auto t = static_cast<unsigned char>(in[2]);
  if (t < static_cast<unsigned char>(FrameType::kHello) ||
      t > static_cast<unsigned char>(FrameType::kBye)) {
    return FrameRead::kBadType;
  }
  const std::uint32_t len = get_u32(in.data() + 4);
  if (len > max_payload) return FrameRead::kOversized;
  if (in.size() - kFrameHeaderBytes < len) return FrameRead::kNeedMore;
  out->type = static_cast<FrameType>(t);
  out->payload = in.substr(kFrameHeaderBytes, len);
  out->size = kFrameHeaderBytes + len;
  return FrameRead::kFrame;
}

std::string pack_hello(const Hello& hello) {
  std::string out;
  out.reserve(12 + hello.name.size());
  put_u32(&out, hello.protocol);
  put_u64(&out, hello.pid);
  out += hello.name;
  return out;
}

bool unpack_hello(std::string_view payload, Hello* out) {
  if (payload.size() < 12) return false;
  out->protocol = get_u32(payload.data());
  out->pid = get_u64(payload.data() + 4);
  out->name.assign(payload.data() + 12, payload.size() - 12);
  return true;
}

std::string pack_bye(const Bye& bye) {
  std::string out;
  out.reserve(16);
  put_u64(&out, bye.events_sent);
  put_u64(&out, bye.samples_sent);
  return out;
}

bool unpack_bye(std::string_view payload, Bye* out) {
  if (payload.size() != 16) return false;
  out->events_sent = get_u64(payload.data());
  out->samples_sent = get_u64(payload.data() + 8);
  return true;
}

std::string pack_fn_events(const trace::FnEvent* events, std::size_t n) {
  return pack_records(events, n, trace::kFnEventRecordSize,
                      &trace::codec::pack_fn_events);
}

std::string pack_temp_samples(const trace::TempSample* samples, std::size_t n) {
  return pack_records(samples, n, trace::kTempSampleRecordSize,
                      &trace::codec::pack_temp_samples);
}

std::string pack_clock_syncs(const trace::ClockSync* syncs, std::size_t n) {
  return pack_records(syncs, n, trace::kClockSyncRecordSize,
                      &trace::codec::pack_clock_syncs);
}

bool unpack_fn_events(std::string_view payload, std::vector<trace::FnEvent>* out) {
  if (payload.size() % trace::kFnEventRecordSize != 0) return false;
  const std::size_t n = payload.size() / trace::kFnEventRecordSize;
  const std::size_t base = out->size();
  out->resize(base + n);
  if (n == 0) return true;
  if (!trace::codec::unpack_fn_events(payload.data(), n, out->data() + base)) {
    out->resize(base);
    return false;
  }
  return true;
}

bool unpack_temp_samples(std::string_view payload,
                         std::vector<trace::TempSample>* out) {
  if (payload.size() % trace::kTempSampleRecordSize != 0) return false;
  const std::size_t n = payload.size() / trace::kTempSampleRecordSize;
  const std::size_t base = out->size();
  out->resize(base + n);
  if (n > 0) trace::codec::unpack_temp_samples(payload.data(), n, out->data() + base);
  return true;
}

std::string pack_meta(const trace::TraceHeader& header) {
  trace::Trace meta_only;
  static_cast<trace::TraceHeader&>(meta_only) = header;
  std::ostringstream out;
  if (!trace::write_trace(out, meta_only).is_ok()) return {};
  return std::move(out).str();
}

bool unpack_meta(std::string_view payload, trace::Trace* out) {
  std::istringstream in{std::string(payload)};
  auto parsed = trace::read_trace(in);
  if (!parsed.is_ok()) return false;
  *out = std::move(parsed).value();
  return true;
}

}  // namespace tempest::collectd
