// The collector's trust boundary without a socket: the frame decoder,
// SessionFold and both HTTP parsers under deterministic mutation. The
// input is one recorded session's byte stream (HELLO, HEARTBEAT, META,
// SYNCS, SAMPLES, EVENTS, BYE) and a request and a response as the
// collector writes them. Cuts at every offset, length fields at and
// past the cap, every type byte, bit-flip storms, and dropped,
// duplicated and reordered frames must never crash or read out of
// bounds (ASan/UBSan CI backs that), and every mutated session either
// folds or ends in a protocol error.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "collectd/net.hpp"
#include "collectd/session_fold.hpp"
#include "collectd/wire.hpp"
#include "collectd_session.hpp"
#include "trace/writer.hpp"

namespace {

using namespace tempest;
using collectd::FrameRead;
using collectd::FrameType;

struct WireFrame {
  FrameType type;
  std::string payload;
};

/// The session's frames, in the order Session::stop sends them.
std::vector<WireFrame> session_frames(const trace::Trace& t) {
  collectd::Hello hello;
  hello.pid = 4242;
  hello.name = t.executable;
  const std::vector<trace::ClockSync> syncs = {{100, 90, 7}, {5000, 4991, 7}};
  return {
      {FrameType::kHello, collectd::pack_hello(hello)},
      {FrameType::kHeartbeat,
       "{\"t\":0.1,\"schema_version\":1,\"seq\":1,\"events_recorded\":1}"},
      {FrameType::kMeta, collectd::pack_meta(t)},
      {FrameType::kSyncs, collectd::pack_clock_syncs(syncs.data(), syncs.size())},
      {FrameType::kSamples,
       collectd::pack_temp_samples(t.temp_samples.data(), t.temp_samples.size())},
      {FrameType::kEvents,
       collectd::pack_fn_events(t.fn_events.data(), t.fn_events.size())},
      {FrameType::kBye,
       collectd::pack_bye({t.fn_events.size(), t.temp_samples.size()})},
  };
}

std::string encode(const std::vector<WireFrame>& frames) {
  std::string out;
  for (const WireFrame& f : frames) {
    char header[collectd::kFrameHeaderBytes];
    collectd::encode_frame_header(header, f.type,
                                  static_cast<std::uint32_t>(f.payload.size()));
    out.append(header, sizeof(header));
    out += f.payload;
  }
  return out;
}

std::string header(FrameType type, std::uint32_t len) {
  std::string out(collectd::kFrameHeaderBytes, '\0');
  collectd::encode_frame_header(out.data(), type, len);
  return out;
}

/// Decode frames off the front of `in` until the decoder stops; checks
/// that every frame lies inside `in`.
FrameRead decode_all(std::string_view in, std::size_t max_payload,
                     std::vector<collectd::Frame>* frames) {
  std::string_view rest = in;
  for (;;) {
    collectd::Frame frame;
    const FrameRead read = collectd::read_frame(rest, max_payload, &frame);
    if (read != FrameRead::kFrame) return read;
    EXPECT_EQ(frame.size, collectd::kFrameHeaderBytes + frame.payload.size());
    EXPECT_LE(frame.size, rest.size());
    EXPECT_GE(frame.payload.data(), in.data());
    EXPECT_LE(frame.payload.data() + frame.payload.size(), in.data() + in.size());
    frames->push_back(frame);
    rest.remove_prefix(frame.size);
  }
}

enum class Outcome { kFolded, kProtocolError, kOpen };

/// Apply frames as a collector shard does: stop at the first protocol
/// error or once BYE folded.
Outcome fold(const std::vector<WireFrame>& frames, collectd::SessionFold* f) {
  for (const WireFrame& frame : frames) {
    if (!f->apply(frame.type, frame.payload)) return Outcome::kProtocolError;
    if (f->closed()) return Outcome::kFolded;
  }
  return Outcome::kOpen;
}

class CollectdFuzz : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    trace_ = new trace::Trace(collectd_test::session_trace(7, 40));
    collectd_test::leave_open_at_bye(trace_);
    path_ = new std::string(::testing::TempDir() + "/collectd_fuzz." +
                            std::to_string(::getpid()) + ".trace");
    ASSERT_TRUE(trace::write_trace_file(*path_, *trace_));
    oracle_ = new std::map<std::string, collectd::FleetFunction>(
        collectd_test::offline_fleet({*path_}));
    ASSERT_FALSE(oracle_->empty());
  }
  static void TearDownTestSuite() {
    std::remove(path_->c_str());
    delete trace_;
    delete path_;
    delete oracle_;
  }

  /// A folded session reproduces the offline oracle exactly.
  static void expect_oracle(const collectd::SessionFold& f) {
    std::map<std::string, collectd::FleetFunction> fleet;
    collectd::fold_profile(f.result().profile, &fleet);
    collectd_test::expect_same_fleet(fleet, *oracle_);
    EXPECT_TRUE(f.result().run_stats.present);
    EXPECT_EQ(f.result().run_stats.calls_observed, trace_->fn_events.size());
  }

  collectd::FoldScratch scratch_;
  collectd::SessionFold new_fold() { return {{}, &scratch_}; }

  static trace::Trace* trace_;
  static std::string* path_;
  static std::map<std::string, collectd::FleetFunction>* oracle_;
};

trace::Trace* CollectdFuzz::trace_ = nullptr;
std::string* CollectdFuzz::path_ = nullptr;
std::map<std::string, collectd::FleetFunction>* CollectdFuzz::oracle_ = nullptr;

// -- the frame decoder ---------------------------------------------------

TEST_F(CollectdFuzz, FrameCutAtEveryOffset) {
  const std::vector<WireFrame> frames = session_frames(*trace_);
  const std::string stream = encode(frames);
  std::vector<std::size_t> ends;
  std::size_t at = 0;
  for (const WireFrame& f : frames) {
    at += collectd::kFrameHeaderBytes + f.payload.size();
    ends.push_back(at);
  }
  for (std::size_t n = 0; n <= stream.size(); ++n) {
    // A heap copy of exactly n bytes: ASan flags any read past it.
    const std::string cut = stream.substr(0, n);
    std::vector<collectd::Frame> got;
    ASSERT_EQ(decode_all(cut, collectd::kDefaultMaxFrameBytes, &got),
              FrameRead::kNeedMore)
        << n;
    std::size_t complete = 0;
    while (complete < ends.size() && ends[complete] <= n) ++complete;
    ASSERT_EQ(got.size(), complete) << n;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].type, frames[i].type);
      EXPECT_EQ(got[i].payload, frames[i].payload);
    }
  }
}

TEST_F(CollectdFuzz, LengthFieldsAtAndPastTheCap) {
  constexpr std::size_t kMax = collectd::kDefaultMaxFrameBytes;
  collectd::Frame frame;
  const auto len = [](std::size_t n) { return static_cast<std::uint32_t>(n); };
  EXPECT_EQ(collectd::read_frame(header(FrameType::kEvents, len(kMax)), kMax, &frame),
            FrameRead::kNeedMore);
  EXPECT_EQ(collectd::read_frame(header(FrameType::kEvents, len(kMax + 1)), kMax,
                                 &frame),
            FrameRead::kOversized);
  EXPECT_EQ(collectd::read_frame(header(FrameType::kEvents, 0xFFFFFFFFu), kMax,
                                 &frame),
            FrameRead::kOversized);
  EXPECT_EQ(collectd::read_frame(header(FrameType::kBye, 0), kMax, &frame),
            FrameRead::kFrame);
  EXPECT_TRUE(frame.payload.empty());

  const std::string full = header(FrameType::kEvents, len(kMax)) + std::string(kMax, 'x');
  ASSERT_EQ(collectd::read_frame(full, kMax, &frame), FrameRead::kFrame);
  EXPECT_EQ(frame.payload.size(), kMax);
  EXPECT_EQ(frame.size, full.size());
  EXPECT_EQ(collectd::read_frame(std::string_view(full).substr(0, full.size() - 1),
                                 kMax, &frame),
            FrameRead::kNeedMore);
  EXPECT_EQ(collectd::read_frame(full, kMax - 1, &frame), FrameRead::kOversized);
}

TEST_F(CollectdFuzz, EveryTypeAndMagicByte) {
  collectd::Frame frame;
  for (int b = 0; b < 256; ++b) {
    std::string bytes = header(FrameType::kBye, 0);
    bytes[2] = static_cast<char>(b);
    const bool known = b >= 1 && b <= 7;
    ASSERT_EQ(collectd::read_frame(bytes, 64, &frame),
              known ? FrameRead::kFrame : FrameRead::kBadType)
        << b;
    if (known) {
      EXPECT_EQ(static_cast<int>(frame.type), b);
    }
    for (int pos = 0; pos < 2; ++pos) {
      std::string magic = header(FrameType::kBye, 0);
      const bool same = static_cast<char>(b) == magic[pos];
      magic[pos] = static_cast<char>(b);
      EXPECT_EQ(collectd::read_frame(magic, 64, &frame),
                same ? FrameRead::kFrame : FrameRead::kBadMagic)
          << pos << " " << b;
    }
  }
}

// -- SessionFold ---------------------------------------------------------

TEST_F(CollectdFuzz, UnmutatedStreamFoldsToTheOfflineOracle) {
  std::vector<WireFrame> frames = session_frames(*trace_);
  for (const bool samples_first : {true, false}) {
    SCOPED_TRACE(samples_first ? "samples first" : "events first");
    if (!samples_first) std::swap(frames[4], frames[5]);
    collectd::SessionFold f = new_fold();
    ASSERT_EQ(fold(frames, &f), Outcome::kFolded);
    expect_oracle(f);
    EXPECT_EQ(f.hello().pid, 4242u);
    EXPECT_EQ(f.hello().name, trace_->executable);
    EXPECT_EQ(f.counters().frames, frames.size());
    EXPECT_EQ(f.counters().events, trace_->fn_events.size());
    EXPECT_EQ(f.counters().samples, trace_->temp_samples.size());
    EXPECT_EQ(f.counters().heartbeats, 1u);
    EXPECT_EQ(f.counters().last_seq, 1u);
    EXPECT_EQ(f.heartbeat().get("events_recorded"), 1.0);
    EXPECT_FALSE(f.apply(FrameType::kHeartbeat, "{}"));  // nothing after BYE
  }
}

TEST_F(CollectdFuzz, DroppedOrDuplicatedFrames) {
  const std::vector<WireFrame> frames = session_frames(*trace_);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    SCOPED_TRACE(i);
    std::vector<WireFrame> dropped = frames;
    dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(i));
    collectd::SessionFold f = new_fold();
    const Outcome out = fold(dropped, &f);
    // Heartbeats and syncs are optional; a stream without BYE stays
    // open (the collector aborts it when the connection ends); any
    // other loss is a protocol error.
    const FrameType type = frames[i].type;
    if (type == FrameType::kHeartbeat || type == FrameType::kSyncs) {
      ASSERT_EQ(out, Outcome::kFolded);
      expect_oracle(f);
    } else {
      EXPECT_EQ(out, type == FrameType::kBye ? Outcome::kOpen
                                             : Outcome::kProtocolError);
    }

    std::vector<WireFrame> duplicated = frames;
    duplicated.insert(duplicated.begin() + static_cast<std::ptrdiff_t>(i),
                      frames[i]);
    collectd::SessionFold g = new_fold();
    const Outcome dup = fold(duplicated, &g);
    if (type == FrameType::kHeartbeat || type == FrameType::kSyncs ||
        type == FrameType::kBye) {
      ASSERT_EQ(dup, Outcome::kFolded);
      expect_oracle(g);
    } else {
      EXPECT_EQ(dup, Outcome::kProtocolError);
    }
  }
}

TEST_F(CollectdFuzz, FramesMovedAheadOfMetaAndHello) {
  const std::vector<WireFrame> frames = session_frames(*trace_);
  const std::size_t meta = 2;
  for (std::size_t i = 1; i < frames.size(); ++i) {
    SCOPED_TRACE(i);
    std::vector<WireFrame> first = frames;
    std::rotate(first.begin(), first.begin() + static_cast<std::ptrdiff_t>(i),
                first.begin() + static_cast<std::ptrdiff_t>(i) + 1);
    collectd::SessionFold f = new_fold();
    EXPECT_EQ(fold(first, &f), Outcome::kProtocolError);  // HELLO comes first

    if (i <= meta) continue;
    std::vector<WireFrame> early = frames;
    std::rotate(early.begin() + meta, early.begin() + static_cast<std::ptrdiff_t>(i),
                early.begin() + static_cast<std::ptrdiff_t>(i) + 1);
    collectd::SessionFold g = new_fold();
    const Outcome out = fold(early, &g);
    if (frames[i].type == FrameType::kSyncs) {
      ASSERT_EQ(out, Outcome::kFolded);  // sync records need no metadata
      expect_oracle(g);
    } else {
      EXPECT_EQ(out, Outcome::kProtocolError);  // bulk records and BYE do
    }
  }
}

TEST_F(CollectdFuzz, SecondHelloAndVersionAreProtocolErrors) {
  std::vector<WireFrame> frames = session_frames(*trace_);
  collectd::Hello other;
  other.protocol = collectd::kProtocolVersion + 1;
  collectd::SessionFold f = new_fold();
  EXPECT_FALSE(f.apply(FrameType::kHello, collectd::pack_hello(other)));
  collectd::SessionFold g = new_fold();
  EXPECT_FALSE(g.apply(FrameType::kHello, "short"));
  collectd::SessionFold h = new_fold();
  ASSERT_TRUE(h.apply(FrameType::kHello, frames[0].payload));
  EXPECT_FALSE(h.apply(FrameType::kHello, frames[0].payload));
  EXPECT_EQ(h.hello().pid, 4242u);
}

class CollectdBitFlip : public CollectdFuzz,
                        public ::testing::WithParamInterface<int> {};

TEST_P(CollectdBitFlip, PayloadStormsFoldOrFail) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  std::uniform_int_distribution<int> bit(0, 7);
  const std::vector<WireFrame> frames = session_frames(*trace_);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    std::uniform_int_distribution<std::size_t> pos(0, frames[i].payload.size() - 1);
    for (int trial = 0; trial < 24; ++trial) {
      std::vector<WireFrame> mutated = frames;
      for (int n = 0; n <= trial % 6; ++n) {
        mutated[i].payload[pos(rng)] ^= static_cast<char>(1 << bit(rng));
      }
      collectd::SessionFold f = new_fold();
      // BYE is still there, so the run never stays open.
      const Outcome out = fold(mutated, &f);
      EXPECT_NE(out, Outcome::kOpen) << i << " " << trial;
      EXPECT_LE(f.counters().events, trace_->fn_events.size());
    }
  }
}

TEST_P(CollectdBitFlip, StreamStormsNeverLeaveTheView) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  std::uniform_int_distribution<int> bit(0, 7);
  const std::string stream = encode(session_frames(*trace_));
  std::uniform_int_distribution<std::size_t> pos(0, stream.size() - 1);
  for (int trial = 0; trial < 100; ++trial) {
    std::string mutated = stream;
    for (int n = 0; n <= trial % 8; ++n) {
      mutated[pos(rng)] ^= static_cast<char>(1 << bit(rng));
    }
    std::vector<collectd::Frame> got;
    decode_all(mutated, 4096, &got);
    collectd::SessionFold f = new_fold();
    for (const collectd::Frame& frame : got) {
      if (!f.apply(frame.type, frame.payload) || f.closed()) break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CollectdBitFlip, ::testing::Range(0, 10));

// -- HTTP ----------------------------------------------------------------

const std::string kRequest =
    "GET /profile?top=3 HTTP/1.0\r\nHost: 127.0.0.1\r\n"
    "Accept:  text/plain;version=0.0.4 \r\n\r\n";

TEST(HttpFuzz, RequestCutAtEveryOffsetIsIncomplete) {
  collectd::HttpRequest request;
  for (std::size_t n = 0; n < kRequest.size(); ++n) {
    const std::string cut = kRequest.substr(0, n);
    ASSERT_EQ(collectd::parse_http_request(cut, &request),
              collectd::HttpParse::kIncomplete)
        << n;
  }
  ASSERT_EQ(collectd::parse_http_request(kRequest, &request),
            collectd::HttpParse::kOk);
  EXPECT_EQ(request.target, "/profile?top=3");
  EXPECT_EQ(request.accept, "text/plain;version=0.0.4");
}

TEST(HttpFuzz, HeadCapGives400ExactlyPastItsBoundary) {
  constexpr std::size_t kCap = collectd::kMaxHttpRequestBytes;
  collectd::HttpRequest request;
  const std::string line = "GET /healthz HTTP/1.0\r\nX-Pad: ";
  for (const std::size_t size : {kCap - 1, kCap, kCap + 1}) {
    SCOPED_TRACE(size);
    const std::string head = line + std::string(size - line.size() - 4, 'p') + "\r\n\r\n";
    ASSERT_EQ(head.size(), size);
    EXPECT_EQ(collectd::parse_http_request(head, &request),
              size <= kCap ? collectd::HttpParse::kOk : collectd::HttpParse::kTooLarge);
    const std::string open = line + std::string(size - line.size(), 'p');
    EXPECT_EQ(collectd::parse_http_request(open, &request),
              size <= kCap ? collectd::HttpParse::kIncomplete
                           : collectd::HttpParse::kTooLarge);
  }
}

TEST(HttpFuzz, AnyMethodButGetIs405) {
  collectd::HttpRequest request;
  for (const char* method : {"POST", "HEAD", "PUT", "DELETE", "get", "GETX", "G"}) {
    const std::string req = std::string(method) + " /healthz HTTP/1.0\r\n\r\n";
    EXPECT_EQ(collectd::parse_http_request(req, &request),
              collectd::HttpParse::kBadMethod)
        << method;
  }
}

TEST(HttpFuzz, AcceptMatchesCaseInsensitively) {
  for (const char* name : {"Accept", "accept", "ACCEPT", "aCcEpT"}) {
    collectd::HttpRequest request;
    const std::string req = std::string("GET /metrics HTTP/1.0\r\nAccept-Encoding: gzip\r\n") +
                            name + ":\ttext/plain\r\n\r\n";
    ASSERT_EQ(collectd::parse_http_request(req, &request), collectd::HttpParse::kOk);
    EXPECT_EQ(request.accept, "text/plain") << name;
  }
}

TEST(HttpFuzz, ResponseCutAtEveryOffset) {
  collectd::HttpReply sent;
  sent.body = "{\"sessions_folded\":1,\"functions\":[]}";
  const std::string response = collectd::format_http_response(sent);
  const std::size_t head = response.size() - sent.body.size();
  for (std::size_t n = 0; n <= response.size(); ++n) {
    const std::string cut = response.substr(0, n);
    collectd::HttpReply got;
    std::string_view status_line;
    ASSERT_EQ(collectd::parse_http_response(cut, &got, &status_line), n >= head) << n;
    if (n < head) continue;
    EXPECT_EQ(got.status, 200);
    EXPECT_EQ(got.content_type, "application/json");
    EXPECT_EQ(got.body, sent.body.substr(0, n - head));
    EXPECT_EQ(status_line, "HTTP/1.0 200 OK");
  }
}

TEST(HttpFuzz, ResponseStatusIsReadFromItsField) {
  const auto status = [](const std::string& line) {
    collectd::HttpReply got;
    std::string_view status_line;
    return collectd::parse_http_response(line + "\r\n\r\nbody", &got, &status_line)
               ? got.status
               : -1;
  };
  EXPECT_EQ(status("HTTP/1.0 500 x 200"), 500);
  EXPECT_EQ(status("HTTP/1.1 200 OK"), 200);
  EXPECT_EQ(status("HTTP/1.0 200"), 200);
  EXPECT_EQ(status("HTTP/1.0 404 Not Found"), 404);
  for (const char* bad : {"HTTP/1.0 2000 OK", "HTTP/1.0 20 OK", "HTTP/1.0  200 OK",
                          "HTTP/1.0 2x0 OK", "XTTP/1.0 200 OK", "HTTP/1.0", "200 OK",
                          ""}) {
    EXPECT_EQ(status(bad), -1) << bad;
  }
  collectd::HttpReply error;
  error.status = 404;
  error.body = "{\"error\":404}";
  collectd::HttpReply got;
  std::string_view status_line;
  ASSERT_TRUE(collectd::parse_http_response(collectd::format_http_response(error),
                                            &got, &status_line));
  EXPECT_EQ(got.status, 404);
  EXPECT_EQ(got.body, "{\"error\":404}");
}

class HttpBitFlip : public ::testing::TestWithParam<int> {};

TEST_P(HttpBitFlip, StormsNeverCrash) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  std::uniform_int_distribution<int> bit(0, 7);
  collectd::HttpReply reply;
  reply.body = "{\"t\":1.5,\"events_recorded\":10}";
  for (const std::string& seed : {kRequest, collectd::format_http_response(reply)}) {
    std::uniform_int_distribution<std::size_t> pos(0, seed.size() - 1);
    for (int trial = 0; trial < 200; ++trial) {
      std::string mutated = seed;
      for (int n = 0; n <= trial % 8; ++n) {
        mutated[pos(rng)] ^= static_cast<char>(1 << bit(rng));
      }
      collectd::HttpRequest request;
      if (collectd::parse_http_request(mutated, &request) == collectd::HttpParse::kOk) {
        EXPECT_LE(request.target.size() + request.accept.size(), mutated.size());
      }
      collectd::HttpReply got;
      std::string_view status_line;
      if (collectd::parse_http_response(mutated, &got, &status_line)) {
        EXPECT_GE(got.status, 0);
        EXPECT_LE(got.status, 999);
        EXPECT_LE(got.body.size(), mutated.size());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HttpBitFlip, ::testing::Range(0, 10));

}  // namespace
