#include "collectd/wire.hpp"

#include "trace/codec.hpp"
#include "trace/reader.hpp"
#include "trace/writer.hpp"

namespace tempest::collectd {
namespace {

using trace::codec::load_le;

template <typename T>
void put_le(std::string* out, T v) {
  char bytes[sizeof(T)];
  trace::codec::store_le(bytes, v);
  out->append(bytes, sizeof(T));
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
  trace::codec::store_le(out + 4, payload_len);
}

FrameRead read_frame(std::string_view in, std::size_t max_payload, Frame* out) {
  if (in.size() < kFrameHeaderBytes) return FrameRead::kNeedMore;
  if (in[0] != kFrameMagic0 || in[1] != kFrameMagic1) return FrameRead::kBadMagic;
  const auto t = static_cast<unsigned char>(in[2]);
  if (t < static_cast<unsigned char>(FrameType::kHello) ||
      t > static_cast<unsigned char>(FrameType::kBye)) {
    return FrameRead::kBadType;
  }
  const std::uint32_t len = load_le<std::uint32_t>(in.data() + 4);
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
  put_le(&out, hello.protocol);
  put_le(&out, hello.pid);
  out += hello.name;
  return out;
}

bool unpack_hello(std::string_view payload, Hello* out) {
  if (payload.size() < 12) return false;
  out->protocol = load_le<std::uint32_t>(payload.data());
  out->pid = load_le<std::uint64_t>(payload.data() + 4);
  out->name.assign(payload.data() + 12, payload.size() - 12);
  return true;
}

std::string pack_bye(const Bye& bye) {
  std::string out;
  out.reserve(16);
  put_le(&out, bye.events_sent);
  put_le(&out, bye.samples_sent);
  return out;
}

bool unpack_bye(std::string_view payload, Bye* out) {
  if (payload.size() != 16) return false;
  out->events_sent = load_le<std::uint64_t>(payload.data());
  out->samples_sent = load_le<std::uint64_t>(payload.data() + 8);
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
  return trace::encode_trace(meta_only);
}

bool unpack_meta(std::string_view payload, trace::Trace* out) {
  auto parsed = trace::read_trace(payload);
  if (!parsed.is_ok()) return false;
  *out = std::move(parsed).value();
  return true;
}

}  // namespace tempest::collectd
