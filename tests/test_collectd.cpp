// tempest-collectd: wire codec round-trips, collector fold equivalence
// against the offline RankFanIn path, and a multi-session hammer with
// abrupt disconnects, slow-loris stalls, and oversized-frame rejection.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "collectd/client.hpp"
#include "collectd/collector.hpp"
#include "collectd/net.hpp"
#include "collectd/profile_client.hpp"
#include "collectd/wire.hpp"
#include "common/cli.hpp"
#include "common/json.hpp"
#include "collectd_session.hpp"
#include "parser/profile.hpp"
#include "telemetry/metrics.hpp"
#include "trace/trace.hpp"
#include "trace/writer.hpp"

namespace {

using namespace tempest;
using namespace tempest::trace;
using tempest::collectd_test::offline_fleet;
using tempest::collectd_test::session_trace;
namespace collectd = tempest::collectd;
namespace json = tempest::json;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Short socket path: sun_path is ~108 bytes and TempDir can be deep.
std::string sock_path(const std::string& name) {
  return "/tmp/tempest_test_" + std::to_string(::getpid()) + "_" + name;
}

bool wait_until(const std::function<bool()>& pred, double timeout_s = 10.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

/// GET `target` through the socket-free query path: the status code,
/// with the body in *body.
int query(const collectd::Collector& collector, const std::string& target,
          std::string* body) {
  collectd::HttpReply reply = collector.handle_query({target, ""});
  *body = std::move(reply.body);
  return reply.status;
}

/// Streams a whole sealed session — by default in the recording side's
/// stop() order, samples ahead of events; `samples_first = false` ships
/// them the other way round, which the collector must fold the same.
/// Returns whether every send succeeded (the connection was still alive
/// when BYE went out, before close()).
bool stream_session(collectd::CollectClient* client, const Trace& t,
                    std::uint64_t pid, bool samples_first = true) {
  client->send_hello(pid, t.executable);
  client->send_heartbeat("{\"t\":0.1,\"schema_version\":1,\"seq\":1,"
                         "\"events_recorded\":1}");
  client->send_meta(t);
  client->send_clock_syncs(t.clock_syncs);
  if (samples_first) {
    client->send_temp_samples(t.temp_samples.data(), t.temp_samples.size());
  }
  client->send_fn_events(t.fn_events.data(), t.fn_events.size());
  if (!samples_first) {
    client->send_temp_samples(t.temp_samples.data(), t.temp_samples.size());
  }
  client->send_bye(t.fn_events.size(), t.temp_samples.size());
  const bool ok = client->alive();
  client->close();
  return ok;
}

// -- wire codec --------------------------------------------------------

TEST(Wire, FrameHeaderRoundTrip) {
  std::string bytes(collectd::kFrameHeaderBytes, '\0');
  collectd::encode_frame_header(bytes.data(), collectd::FrameType::kEvents, 5);
  bytes += "abcde";
  collectd::Frame frame;
  EXPECT_EQ(collectd::read_frame(bytes, 1024, &frame), collectd::FrameRead::kFrame);
  EXPECT_EQ(frame.type, collectd::FrameType::kEvents);
  EXPECT_EQ(frame.payload, "abcde");
  EXPECT_EQ(frame.size, bytes.size());
  EXPECT_EQ(collectd::read_frame(bytes.substr(0, 12), 1024, &frame),
            collectd::FrameRead::kNeedMore);
  EXPECT_EQ(collectd::read_frame(bytes, 4, &frame),
            collectd::FrameRead::kOversized);

  bytes[0] = 'X';
  EXPECT_EQ(collectd::read_frame(bytes, 1024, &frame),
            collectd::FrameRead::kBadMagic);
  collectd::encode_frame_header(bytes.data(), collectd::FrameType::kEvents, 5);
  bytes[2] = 99;
  EXPECT_EQ(collectd::read_frame(bytes, 1024, &frame),
            collectd::FrameRead::kBadType);
}

TEST(Wire, HelloAndByeRoundTrip) {
  collectd::Hello hello;
  hello.pid = 4242;
  hello.name = "/usr/bin/app";
  collectd::Hello back;
  ASSERT_TRUE(collectd::unpack_hello(collectd::pack_hello(hello), &back));
  EXPECT_EQ(back.protocol, collectd::kProtocolVersion);
  EXPECT_EQ(back.pid, 4242u);
  EXPECT_EQ(back.name, "/usr/bin/app");
  EXPECT_FALSE(collectd::unpack_hello("short", &back));

  collectd::Bye bye;
  bye.events_sent = 7;
  bye.samples_sent = 9;
  collectd::Bye bye_back;
  ASSERT_TRUE(collectd::unpack_bye(collectd::pack_bye(bye), &bye_back));
  EXPECT_EQ(bye_back.events_sent, 7u);
  EXPECT_EQ(bye_back.samples_sent, 9u);
}

TEST(Wire, RecordSectionsRoundTrip) {
  const Trace t = session_trace(3, 8);
  std::vector<FnEvent> events;
  ASSERT_TRUE(collectd::unpack_fn_events(
      collectd::pack_fn_events(t.fn_events.data(), t.fn_events.size()),
      &events));
  ASSERT_EQ(events.size(), t.fn_events.size());
  EXPECT_EQ(events.front().tsc, t.fn_events.front().tsc);
  EXPECT_EQ(events.back().addr, t.fn_events.back().addr);

  std::vector<TempSample> samples;
  ASSERT_TRUE(collectd::unpack_temp_samples(
      collectd::pack_temp_samples(t.temp_samples.data(), t.temp_samples.size()),
      &samples));
  ASSERT_EQ(samples.size(), t.temp_samples.size());
  EXPECT_DOUBLE_EQ(samples.front().temp_c, t.temp_samples.front().temp_c);

  // A payload that is not a whole number of records is malformed.
  std::string truncated =
      collectd::pack_fn_events(t.fn_events.data(), t.fn_events.size());
  truncated.pop_back();
  std::vector<FnEvent> none;
  EXPECT_FALSE(collectd::unpack_fn_events(truncated, &none));
}

TEST(Wire, MetaRoundTripCarriesRunStatsAndSymbols) {
  const Trace t = session_trace(5, 4);
  const std::string payload = collectd::pack_meta(t);
  ASSERT_FALSE(payload.empty());
  Trace back;
  ASSERT_TRUE(collectd::unpack_meta(payload, &back));
  EXPECT_EQ(back.nodes.size(), 1u);
  EXPECT_EQ(back.nodes[0].hostname, "host5");
  EXPECT_EQ(back.threads.size(), 1u);
  EXPECT_EQ(back.synthetic_symbols.size(), 2u);
  EXPECT_EQ(back.synthetic_symbols[0].name, "shared_fn");
  EXPECT_TRUE(back.run_stats.present);
  EXPECT_EQ(back.run_stats.calls_observed, t.fn_events.size());
  // Bulk sections stay behind: META is metadata-only.
  EXPECT_TRUE(back.fn_events.empty());
  EXPECT_FALSE(collectd::unpack_meta("not a trace", &back));
}

TEST(Wire, JsonNumberScansFlatHeartbeatLines) {
  const std::string line = "{\"t\":1.5,\"schema_version\":1,\"seq\":42}";
  const json::NumberFields fields = json::read_numbers(line);
  EXPECT_DOUBLE_EQ(fields.get("t", -1.0), 1.5);
  EXPECT_DOUBLE_EQ(fields.get("seq", -1.0), 42.0);
  EXPECT_DOUBLE_EQ(fields.get("absent", -1.0), -1.0);
}

TEST(Net, EndpointParsing) {
  collectd::Endpoint ep;
  EXPECT_TRUE(collectd::parse_endpoint("uds:/tmp/x.sock", &ep));
  EXPECT_TRUE(ep.uds);
  EXPECT_EQ(ep.path, "/tmp/x.sock");
  EXPECT_TRUE(collectd::parse_endpoint("tcp:localhost:9000", &ep));
  EXPECT_FALSE(ep.uds);
  EXPECT_EQ(ep.host, "localhost");
  EXPECT_EQ(ep.port, 9000);
  EXPECT_TRUE(collectd::parse_endpoint("127.0.0.1:80", &ep));
  EXPECT_EQ(ep.host, "127.0.0.1");
  EXPECT_FALSE(collectd::parse_endpoint("uds:", &ep));
  EXPECT_FALSE(collectd::parse_endpoint("localhost", &ep));
  EXPECT_FALSE(collectd::parse_endpoint("host:99999", &ep));
  EXPECT_FALSE(collectd::parse_endpoint("host:12x", &ep));
}

// -- collector fold ----------------------------------------------------

TEST(Collector, SingleSessionMatchesOfflineFold) {
  // Both wire orders: samples ahead of events (what Session::stop
  // sends) and behind them (older senders); the fold must not care. The
  // session ends with an activation open at BYE and a sample after its
  // last event, so the rollup pins where the open activation closes.
  for (const bool samples_first : {true, false}) {
    SCOPED_TRACE(samples_first ? "samples first" : "events first");
    collectd::CollectorOptions options;
    options.ingest_uds = sock_path(samples_first ? "single_sf" : "single_ef");
    collectd::Collector collector(options);
    ASSERT_TRUE(collector.start());

    Trace t = session_trace(1, 50);
    collectd_test::leave_open_at_bye(&t);
    const std::string path = temp_path("single_session.trace");
    ASSERT_TRUE(write_trace_file(path, t));

    collectd::CollectClient client;
    ASSERT_TRUE(client.connect("uds:" + options.ingest_uds, 2.0));
    stream_session(&client, t, 111, samples_first);

    ASSERT_TRUE(wait_until(
        [&] { return collector.fleet().sessions_folded == 1; }));
    const collectd::FleetSnapshot fleet = collector.fleet();
    EXPECT_EQ(fleet.sessions_aborted, 0u);

    collectd_test::expect_same_fleet(fleet.functions, offline_fleet({path}));
    EXPECT_EQ(fleet.functions.at("open_at_bye").total_time_s, 4900 / 1e9);

    // RunStats ride through the fold with the conservation invariant.
    EXPECT_TRUE(fleet.run_stats.present);
    EXPECT_EQ(fleet.run_stats.calls_observed, t.fn_events.size());
    EXPECT_EQ(fleet.run_stats.events_recorded +
                  fleet.run_stats.events_suppressed +
                  fleet.run_stats.events_throttled +
                  fleet.run_stats.events_dropped +
                  fleet.run_stats.events_overwritten,
              fleet.run_stats.calls_observed);
    collector.stop();
  }
}

TEST(Collector, FifoExecutableFoldsWithHexNames) {
  // A session's META names the executable the fold symbolises against.
  // Naming a FIFO once blocked the shard thread at BYE for good; now the
  // path is refused, the session folds with hex names, and the session
  // after it on the same shard folds too.
  const std::string fifo = temp_path("collectd_fifo_exe");
  std::remove(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  collectd::CollectorOptions options;
  options.ingest_uds = sock_path("fifo_exe");
  options.shards = 1;
  collectd::Collector collector(options);
  ASSERT_TRUE(collector.start());
  for (const std::uint16_t id : {1, 2}) {
    Trace t = session_trace(id, 10);
    if (id == 1) {
      t.executable = fifo;
      const std::uint64_t last = t.fn_events.back().tsc;
      t.fn_events.push_back({last + 100, 0x401000, id, id, FnEventKind::kEnter});
      t.fn_events.push_back({last + 200, 0x401000, id, id, FnEventKind::kExit});
    }
    collectd::CollectClient client;
    ASSERT_TRUE(client.connect("uds:" + options.ingest_uds, 2.0));
    ASSERT_TRUE(stream_session(&client, t, 100 + id));
  }
  ASSERT_TRUE(wait_until([&] { return collector.fleet().sessions_folded == 2; }));
  const collectd::FleetSnapshot fleet = collector.fleet();
  EXPECT_EQ(fleet.sessions_aborted, 0u);
  ASSERT_EQ(fleet.functions.count("0x401000"), 1u);
  EXPECT_EQ(fleet.functions.at("0x401000").calls, 1u);
  EXPECT_EQ(fleet.functions.count("own_fn_2"), 1u);
  collector.stop();
  std::remove(fifo.c_str());
}

TEST(Collector, HammerManySessionsWithDisconnects) {
  // 32 concurrent senders; every 4th vanishes mid-chunk (a partial
  // EVENTS frame then an abrupt close). The fleet rollup must equal the
  // offline RankFanIn of exactly the clean sessions.
  constexpr int kSessions = 32;
  collectd::CollectorOptions options;
  options.ingest_uds = sock_path("hammer");
  options.max_queue_frames = 8;  // exercise backpressure pause/resume
  collectd::Collector collector(options);
  ASSERT_TRUE(collector.start());

  std::vector<Trace> traces;
  std::vector<std::string> clean_paths;
  std::uint64_t clean_count = 0, dirty_count = 0;
  for (int i = 0; i < kSessions; ++i) {
    traces.push_back(session_trace(static_cast<std::uint16_t>(i), 120));
    if (i % 4 == 3) {
      ++dirty_count;
    } else {
      ++clean_count;
      const std::string path =
          temp_path("hammer_" + std::to_string(i) + ".trace");
      EXPECT_TRUE(write_trace_file(path, traces.back()));
      clean_paths.push_back(path);
    }
  }

  std::vector<std::thread> senders;
  senders.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    senders.emplace_back([&, i] {
      const Trace& t = traces[static_cast<std::size_t>(i)];
      if (i % 4 == 3) {
        // Abrupt mid-chunk death: a frame header promising more payload
        // than ever arrives, then close. Must abort, never fold.
        collectd::Endpoint ep;
        ASSERT_TRUE(
            collectd::parse_endpoint("uds:" + options.ingest_uds, &ep));
        auto fd = collectd::connect_endpoint(ep, 2.0);
        ASSERT_TRUE(fd.is_ok()) << fd.message();
        collectd::Hello hello;
        hello.pid = 1000 + static_cast<std::uint64_t>(i);
        hello.name = t.executable;
        const std::string hello_payload = collectd::pack_hello(hello);
        char header[collectd::kFrameHeaderBytes];
        collectd::encode_frame_header(
            header, collectd::FrameType::kHello,
            static_cast<std::uint32_t>(hello_payload.size()));
        ASSERT_TRUE(collectd::send_all(fd.value(), header, sizeof(header)));
        ASSERT_TRUE(collectd::send_all(fd.value(), hello_payload.data(),
                                       hello_payload.size()));
        const std::string events =
            collectd::pack_fn_events(t.fn_events.data(), t.fn_events.size());
        collectd::encode_frame_header(
            header, collectd::FrameType::kEvents,
            static_cast<std::uint32_t>(events.size()));
        ASSERT_TRUE(collectd::send_all(fd.value(), header, sizeof(header)));
        ASSERT_TRUE(
            collectd::send_all(fd.value(), events.data(), events.size() / 2));
        ::close(fd.value());
        return;
      }
      collectd::CollectClient client;
      ASSERT_TRUE(client.connect("uds:" + options.ingest_uds, 5.0));
      EXPECT_TRUE(stream_session(&client, t,
                                 1000 + static_cast<std::uint64_t>(i)))
          << "a send failed for clean session " << i;
    });
  }
  for (auto& s : senders) s.join();

  ASSERT_TRUE(wait_until([&] {
    const auto fleet = collector.fleet();
    return fleet.sessions_folded == clean_count &&
           fleet.sessions_aborted == dirty_count;
  })) << "folded=" << collector.fleet().sessions_folded
      << " aborted=" << collector.fleet().sessions_aborted;

  const collectd::FleetSnapshot fleet = collector.fleet();
  const auto offline = offline_fleet(clean_paths);
  ASSERT_EQ(fleet.functions.size(), offline.size());
  for (const auto& [name, fn] : offline) {
    auto it = fleet.functions.find(name);
    ASSERT_NE(it, fleet.functions.end()) << name;
    EXPECT_EQ(it->second.calls, fn.calls) << name;
    EXPECT_NEAR(it->second.total_time_s, fn.total_time_s,
                1e-6 * (1.0 + std::abs(fn.total_time_s)))
        << name;
  }
  // shared_fn ran in every folded session; the fleet fold tracks that
  // (the offline merged run can't — it is one run).
  auto shared = fleet.functions.find("shared_fn");
  ASSERT_NE(shared, fleet.functions.end());
  EXPECT_EQ(shared->second.sessions, clean_count);

  // Conservation across the count-weighted RunStats append fold.
  std::uint64_t expected_calls = 0;
  for (int i = 0; i < kSessions; ++i) {
    if (i % 4 != 3) expected_calls += traces[i].fn_events.size();
  }
  EXPECT_TRUE(fleet.run_stats.present);
  EXPECT_EQ(fleet.run_stats.calls_observed, expected_calls);
  EXPECT_EQ(fleet.run_stats.events_recorded +
                fleet.run_stats.events_suppressed +
                fleet.run_stats.events_throttled +
                fleet.run_stats.events_dropped +
                fleet.run_stats.events_overwritten,
            fleet.run_stats.calls_observed);
  collector.stop();
}

TEST(Collector, RejectsOversizedFrame) {
  collectd::CollectorOptions options;
  options.ingest_uds = sock_path("oversized");
  options.max_frame_bytes = 1024;
  collectd::Collector collector(options);
  ASSERT_TRUE(collector.start());

  collectd::Endpoint ep;
  ASSERT_TRUE(collectd::parse_endpoint("uds:" + options.ingest_uds, &ep));
  auto fd = collectd::connect_endpoint(ep, 2.0);
  ASSERT_TRUE(fd.is_ok()) << fd.message();
  char header[collectd::kFrameHeaderBytes];
  collectd::encode_frame_header(header, collectd::FrameType::kEvents,
                                1u << 20);
  ASSERT_TRUE(collectd::send_all(fd.value(), header, sizeof(header)));

  ASSERT_TRUE(wait_until(
      [&] { return collector.fleet().sessions_aborted == 1; }));
  EXPECT_EQ(collector.fleet().sessions_folded, 0u);
  ::close(fd.value());
  collector.stop();
}

bool send_raw_frame(int fd, collectd::FrameType type, const std::string& payload) {
  char header[collectd::kFrameHeaderBytes];
  collectd::encode_frame_header(header, type,
                                static_cast<std::uint32_t>(payload.size()));
  return collectd::send_all(fd, header, sizeof(header)).is_ok() &&
         collectd::send_all(fd, payload.data(), payload.size()).is_ok();
}

TEST(Collector, HelloOpensTheSessionOnce) {
  // A stream that starts without HELLO, or sends a second one, is a
  // protocol error: it never folds and never shows up as a nameless
  // session in the fleet.
  collectd::CollectorOptions options;
  options.ingest_uds = sock_path("hello_first");
  collectd::Collector collector(options);
  ASSERT_TRUE(collector.start());
  const Trace t = session_trace(7, 10);

  collectd::Endpoint ep;
  ASSERT_TRUE(collectd::parse_endpoint("uds:" + options.ingest_uds, &ep));
  auto fd = collectd::connect_endpoint(ep, 2.0);
  ASSERT_TRUE(fd.is_ok()) << fd.message();
  // Sends after the collector hung up may fail; the outcome is what counts.
  (void)(send_raw_frame(fd.value(), collectd::FrameType::kMeta,
                        collectd::pack_meta(t)) &&
         send_raw_frame(fd.value(), collectd::FrameType::kEvents,
                        collectd::pack_fn_events(t.fn_events.data(),
                                                 t.fn_events.size())) &&
         send_raw_frame(fd.value(), collectd::FrameType::kBye,
                        collectd::pack_bye({t.fn_events.size(), 0})));
  ASSERT_TRUE(wait_until(
      [&] { return collector.fleet().sessions_aborted == 1; }));
  ::close(fd.value());

  collectd::CollectClient twice;
  ASSERT_TRUE(twice.connect("uds:" + options.ingest_uds, 2.0));
  twice.send_hello(70, "first_name");
  stream_session(&twice, t, 71);  // opens with a second HELLO
  ASSERT_TRUE(wait_until(
      [&] { return collector.fleet().sessions_aborted == 2; }));
  EXPECT_EQ(collector.fleet().sessions_folded, 0u);

  std::string body;
  ASSERT_EQ(query(collector, "/sessions", &body), 200);
  EXPECT_EQ(body.find("\"state\":\"folded\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"name\":\"first_name\",\"pid\":70"), std::string::npos)
      << body;
  collector.stop();
}

TEST(Collector, IdleTimeoutPastTheClockRangeIsRefused) {
  // 1e10 s overflows an int64 nanosecond duration; the daemon used to
  // reap every connection at once instead of answering.
  collectd::CollectorOptions options;
  options.ingest_uds = sock_path("idle_range");
  options.idle_timeout_s = 1e10;
  {
    collectd::Collector refused(options);
    EXPECT_FALSE(refused.start());
  }
  options.idle_timeout_s = cli::kMaxSeconds;
  collectd::Collector collector(options);
  ASSERT_TRUE(collector.start());
  auto health = collectd::http_get(
      "127.0.0.1:" + std::to_string(collector.http_port()), "/healthz", 2.0);
  ASSERT_TRUE(health.is_ok()) << health.message();
  EXPECT_NE(health.value().find("\"status\":\"ok\""), std::string::npos);
  collector.stop();
}

TEST(Collector, SlowLorisIsReapedWhileOthersFold) {
  collectd::CollectorOptions options;
  options.ingest_uds = sock_path("loris");
  options.idle_timeout_s = 0.3;
  collectd::Collector collector(options);
  ASSERT_TRUE(collector.start());

  // The stalled connection: half a frame header, then silence.
  collectd::Endpoint ep;
  ASSERT_TRUE(collectd::parse_endpoint("uds:" + options.ingest_uds, &ep));
  auto stalled = collectd::connect_endpoint(ep, 2.0);
  ASSERT_TRUE(stalled.is_ok()) << stalled.message();
  ASSERT_TRUE(collectd::send_all(stalled.value(), "TC", 2));

  // A well-behaved session folds while the loris stalls.
  const Trace t = session_trace(9, 30);
  collectd::CollectClient client;
  ASSERT_TRUE(client.connect("uds:" + options.ingest_uds, 2.0));
  stream_session(&client, t, 99);

  ASSERT_TRUE(wait_until([&] {
    const auto fleet = collector.fleet();
    return fleet.sessions_folded == 1 && fleet.sessions_aborted == 1;
  }));
  ::close(stalled.value());
  collector.stop();
}

TEST(Collector, HeartbeatSeqGapsAndRestartsAreCounted) {
  collectd::CollectorOptions options;
  options.ingest_uds = sock_path("hbseq");
  collectd::Collector collector(options);
  ASSERT_TRUE(collector.start());

  collectd::CollectClient client;
  ASSERT_TRUE(client.connect("uds:" + options.ingest_uds, 2.0));
  client.send_hello(7, "hb_app");
  client.send_heartbeat("{\"t\":0.1,\"schema_version\":1,\"seq\":1}");
  client.send_heartbeat("{\"t\":0.5,\"schema_version\":1,\"seq\":5}");  // gap: 2..4 lost
  client.send_heartbeat("{\"t\":0.2,\"schema_version\":1,\"seq\":2}");  // restart

  std::string body;
  ASSERT_TRUE(wait_until([&] {
    body.clear();
    return query(collector, "/sessions", &body) == 200 &&
           body.find("\"heartbeats\":3") != std::string::npos;
  }));
  EXPECT_NE(body.find("\"heartbeat_gaps\":3"), std::string::npos) << body;
  EXPECT_NE(body.find("\"heartbeat_restarts\":1"), std::string::npos) << body;
  EXPECT_NE(body.find("\"last_seq\":2"), std::string::npos) << body;
  client.close();
  collector.stop();
}

TEST(Collector, TopFadesOutFinishedSessions) {
  collectd::CollectorOptions options;
  options.ingest_uds = sock_path("topfade");
  options.top_freshness_s = 0.0;  // finished sessions drop out at once
  collectd::Collector collector(options);
  ASSERT_TRUE(collector.start());

  // One session folds (its stream_session heartbeat says
  // events_recorded:1), one stays live with events_recorded:10.
  const Trace t = session_trace(3, 8);
  collectd::CollectClient done;
  ASSERT_TRUE(done.connect("uds:" + options.ingest_uds, 2.0));
  ASSERT_TRUE(stream_session(&done, t, 31));
  ASSERT_TRUE(wait_until(
      [&] { return collector.fleet().sessions_folded == 1; }));

  collectd::CollectClient live;
  ASSERT_TRUE(live.connect("uds:" + options.ingest_uds, 2.0));
  live.send_hello(32, "live_app");
  live.send_heartbeat("{\"t\":1.5,\"schema_version\":1,\"seq\":1,"
                      "\"events_recorded\":10}");
  ASSERT_TRUE(wait_until([&] {
    std::string body;
    return query(collector, "/sessions", &body) == 200 &&
           body.find("\"last_t\":1.5") != std::string::npos;
  }));

  // The dead session's final heartbeat must not be double-counted into
  // the live fleet view: only the live session contributes.
  std::string top;
  ASSERT_EQ(query(collector, "/top", &top), 200);
  EXPECT_NE(top.find("\"events_recorded\":10"), std::string::npos) << top;
  live.close();
  collector.stop();
}

TEST(Collector, TerminalSessionsAreReapedBeyondRetentionCap) {
  collectd::CollectorOptions options;
  options.ingest_uds = sock_path("reap");
  options.max_terminal_sessions = 2;
  collectd::Collector collector(options);
  ASSERT_TRUE(collector.start());

  constexpr int kRuns = 5;
  for (int i = 0; i < kRuns; ++i) {
    const Trace t = session_trace(static_cast<std::uint16_t>(i + 1), 4);
    collectd::CollectClient client;
    ASSERT_TRUE(client.connect("uds:" + options.ingest_uds, 2.0));
    ASSERT_TRUE(stream_session(&client, t, 100 + i));
  }
  ASSERT_TRUE(wait_until([&] {
    return collector.fleet().sessions_folded == kRuns;
  }));

  // The /sessions detail map is bounded by the cap; the fleet rollup
  // still remembers every fold.
  ASSERT_TRUE(wait_until([&] {
    std::string body;
    if (query(collector, "/sessions", &body) != 200) return false;
    std::size_t entries = 0;
    for (std::size_t pos = body.find("\"id\":"); pos != std::string::npos;
         pos = body.find("\"id\":", pos + 1)) {
      ++entries;
    }
    return entries <= options.max_terminal_sessions;
  }));
  EXPECT_EQ(collector.fleet().sessions_folded,
            static_cast<std::uint64_t>(kRuns));
  collector.stop();
}

// -- query plane -------------------------------------------------------

TEST(Collector, QueryPlaneServesAllEndpoints) {
  collectd::CollectorOptions options;
  options.ingest_uds = sock_path("http");
  collectd::Collector collector(options);
  ASSERT_TRUE(collector.start());
  ASSERT_GT(collector.http_port(), 0);

  const Trace t = session_trace(2, 20);
  collectd::CollectClient client;
  ASSERT_TRUE(client.connect("uds:" + options.ingest_uds, 2.0));
  stream_session(&client, t, 22);
  ASSERT_TRUE(wait_until(
      [&] { return collector.fleet().sessions_folded == 1; }));

  // A second session that stays live: /top is a live fleet view, so
  // only this one's heartbeat may contribute to the aggregate.
  collectd::CollectClient live;
  ASSERT_TRUE(live.connect("uds:" + options.ingest_uds, 2.0));
  live.send_hello(23, "live_app");
  live.send_heartbeat("{\"t\":2.5,\"schema_version\":1,\"seq\":3,"
                      "\"events_recorded\":10}");
  ASSERT_TRUE(wait_until([&] {
    std::string body;
    return query(collector, "/sessions", &body) == 200 &&
           body.find("\"last_t\":2.5") != std::string::npos;
  }));

  const std::string spec =
      "127.0.0.1:" + std::to_string(collector.http_port());
  auto health = collectd::http_get(spec, "/healthz", 2.0);
  ASSERT_TRUE(health.is_ok()) << health.message();
  EXPECT_NE(health.value().find("\"status\":\"ok\""), std::string::npos);

  auto profile = collectd::http_get(spec, "/profile?top=1", 2.0);
  ASSERT_TRUE(profile.is_ok()) << profile.message();
  EXPECT_NE(profile.value().find("\"sessions_folded\":1"), std::string::npos);
  // top=1 keeps only the hottest function.
  EXPECT_EQ(profile.value().find("own_fn") != std::string::npos &&
                profile.value().find("shared_fn") != std::string::npos,
            false);

  auto runstats = collectd::http_get(spec, "/runstats", 2.0);
  ASSERT_TRUE(runstats.is_ok()) << runstats.message();
  EXPECT_NE(runstats.value().find("\"conservation_ok\":true"),
            std::string::npos);

  auto metrics = collectd::http_get(spec, "/metrics", 2.0);
  ASSERT_TRUE(metrics.is_ok()) << metrics.message();
  EXPECT_NE(metrics.value().find("\"collect_sessions_folded\":"),
            std::string::npos);

  auto top = collectd::http_get(spec, "/top", 2.0);
  ASSERT_TRUE(top.is_ok()) << top.message();
  EXPECT_NE(top.value().find("\"schema_version\":1"), std::string::npos);
  // The just-folded session is still inside the /top freshness window,
  // so its final heartbeat (events_recorded:1) sums with the live
  // session's (10). TopFadesOutFinishedSessions pins the fade-out.
  EXPECT_NE(top.value().find("\"events_recorded\":11"), std::string::npos)
      << top.value();
  live.close();

  auto missing = collectd::http_get(spec, "/nope", 2.0);
  EXPECT_FALSE(missing.is_ok());

  // The socket-free path used by tests and the daemon's own plumbing.
  std::string body;
  EXPECT_EQ(query(collector, "/sessions", &body), 200);
  EXPECT_NE(body.find("\"state\":\"folded\""), std::string::npos);
  EXPECT_EQ(query(collector, "/bogus", &body), 404);
  collector.stop();
}

TEST(Collector, StartRequiresAnIngestEndpoint) {
  collectd::CollectorOptions options;  // neither uds nor tcp
  collectd::Collector collector(options);
  EXPECT_FALSE(collector.start());
}

TEST(Collector, TcpIngestFoldsASession) {
  collectd::CollectorOptions options;
  options.ingest_tcp = "127.0.0.1:0";
  collectd::Collector collector(options);
  // Ephemeral TCP ingest: we cannot read the bound port back from the
  // options, so use a fixed high port with retry-on-busy semantics
  // instead — bind a throwaway listener to find a free port first.
  {
    collectd::Endpoint probe;
    ASSERT_TRUE(collectd::parse_endpoint("127.0.0.1:0", &probe));
    auto lfd = collectd::listen_endpoint(probe, 1);
    ASSERT_TRUE(lfd.is_ok());
    auto port = collectd::local_port(lfd.value());
    ASSERT_TRUE(port.is_ok());
    ::close(lfd.value());
    options.ingest_tcp = "127.0.0.1:" + std::to_string(port.value());
  }
  collectd::Collector bound(options);
  ASSERT_TRUE(bound.start());

  const Trace t = session_trace(4, 10);
  collectd::CollectClient client;
  ASSERT_TRUE(client.connect("tcp:" + options.ingest_tcp, 2.0));
  stream_session(&client, t, 44);
  ASSERT_TRUE(wait_until(
      [&] { return bound.fleet().sessions_folded == 1; }));
  bound.stop();
}

// -- fleet time-moment pooling and the Prometheus exposition ----------

TEST(Collector, FoldProfilePoolsTimeMoments) {
  // Two "sessions" with known per-activation moments: n=2 mean 10 var 4
  // then n=3 mean 20 var 9. Chan combine: n=5, mean 16,
  // M2 = 2*4 + 3*9 + (20-10)^2 * 2*3/5 = 155, var = 31.
  auto run_with = [](std::uint64_t count, double mean, double var) {
    parser::RunProfile profile;
    parser::NodeProfile node;
    node.node_id = 0;
    parser::FunctionProfile fn;
    fn.name = "pooled_fn";
    fn.calls = count;
    fn.total_time_s = mean * static_cast<double>(count);
    fn.time.count = count;
    fn.time.mean_s = mean;
    fn.time.var_s2 = var;
    fn.time.sdv_s = std::sqrt(var);
    node.functions.push_back(fn);
    profile.nodes.push_back(node);
    return profile;
  };

  std::map<std::string, collectd::FleetFunction> fleet;
  collectd::fold_profile(run_with(2, 10.0, 4.0), &fleet);
  collectd::fold_profile(run_with(3, 20.0, 9.0), &fleet);

  ASSERT_EQ(fleet.count("pooled_fn"), 1u);
  const collectd::FleetFunction& f = fleet["pooled_fn"];
  EXPECT_EQ(f.sessions, 2u);
  EXPECT_EQ(f.time.count, 5u);
  EXPECT_NEAR(f.time.mean, 16.0, 1e-12);
  EXPECT_NEAR(f.time.m2, 155.0, 1e-9);
  EXPECT_NEAR(f.time.variance(), 31.0, 1e-9);

  // A profile with no activation stats still folds calls/time but
  // leaves the moments untouched.
  parser::RunProfile no_stats = run_with(0, 0.0, 0.0);
  no_stats.nodes[0].functions[0].calls = 7;
  no_stats.nodes[0].functions[0].total_time_s = 1.5;
  collectd::fold_profile(no_stats, &fleet);
  EXPECT_EQ(fleet["pooled_fn"].time.count, 5u);
  EXPECT_EQ(fleet["pooled_fn"].calls, 12u);
}

TEST(Collector, MetricsServesPrometheusOnRequest) {
  collectd::CollectorOptions options;
  options.ingest_uds = sock_path("prom");
  collectd::Collector collector(options);
  ASSERT_TRUE(collector.start());

  // Default stays JSON. The daemon reads its own peak RSS as it serves.
  telemetry::gauge_set(telemetry::Gauge::kPeakRssKb, 0);
  collectd::HttpReply reply = collector.handle_query({"/metrics", ""});
  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(reply.content_type, "application/json");
  EXPECT_EQ(reply.body.front(), '{');
  EXPECT_GT(json::read_numbers(reply.body).get("peak_rss_kb"), 0.0);

  // Explicit query parameter wins regardless of Accept.
  reply = collector.handle_query({"/metrics?format=prometheus", "application/json"});
  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(reply.content_type, "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(reply.body.find("# TYPE tempest_collect_sessions_folded counter"),
            std::string::npos);
  EXPECT_NE(reply.body.find("tempest_uptime_seconds "), std::string::npos);
  // Histograms expose cumulative buckets with the canonical +Inf bound.
  EXPECT_NE(reply.body.find("_bucket{le=\"+Inf\"}"), std::string::npos);
  EXPECT_NE(reply.body.find("# TYPE tempest_collect_fold_us histogram"),
            std::string::npos);

  // Accept-header negotiation picks Prometheus for text/plain scrapers…
  reply = collector.handle_query({"/metrics", "text/plain;version=0.0.4"});
  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(reply.content_type, "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_EQ(reply.body.compare(0, 7, "# TYPE "), 0);

  // …and ?format=json forces JSON back even for such a scraper.
  reply = collector.handle_query({"/metrics?format=json", "text/plain"});
  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(reply.content_type, "application/json");
  EXPECT_EQ(reply.body.front(), '{');
  collector.stop();
}

TEST(Collector, ProfileServesPooledTimeStats) {
  collectd::CollectorOptions options;
  options.ingest_uds = sock_path("timestats");
  collectd::Collector collector(options);
  ASSERT_TRUE(collector.start());

  const Trace t = session_trace(6, 20);
  collectd::CollectClient client;
  ASSERT_TRUE(client.connect("uds:" + options.ingest_uds, 2.0));
  ASSERT_TRUE(stream_session(&client, t, 66));
  ASSERT_TRUE(wait_until(
      [&] { return collector.fleet().sessions_folded == 1; }));

  std::string body;
  ASSERT_EQ(query(collector, "/profile", &body), 200);
  EXPECT_NE(body.find("\"activations\":"), std::string::npos) << body;
  EXPECT_NE(body.find("\"time_mean_s\":"), std::string::npos) << body;
  EXPECT_NE(body.find("\"time_var_s2\":"), std::string::npos) << body;

  // The diff's poll-mode client parses the same body back; every
  // session_trace activation lasts (400 + id) ticks at 1e9/s, so the
  // pooled mean is exact and the variance is zero.
  auto view = collectd::parse_fleet_profile(body);
  ASSERT_TRUE(view.is_ok()) << view.message();
  EXPECT_EQ(view.value().sessions_folded, 1u);
  bool shared_seen = false;
  for (const auto& fn : view.value().functions) {
    if (fn.name != "shared_fn") continue;
    shared_seen = true;
    EXPECT_EQ(fn.sessions, 1u);
    EXPECT_NEAR(fn.time_mean_s, 406e-9, 1e-15);
    EXPECT_NEAR(fn.time_var_s2, 0.0, 1e-18);
  }
  EXPECT_TRUE(shared_seen) << body;
  collector.stop();
}

// -- names and keys that need the full JSON grammar --------------------

TEST(Collector, ProfileParsesBraceNamedFunctions) {
  // Demangled lambdas carry braces; the /profile client must read every
  // field of such an entry, not stop at the first '}' in its name.
  collectd::CollectorOptions options;
  options.ingest_uds = sock_path("lambda");
  collectd::Collector collector(options);
  ASSERT_TRUE(collector.start());

  const std::string lambda = "main::{lambda()#1}::operator()() const";
  Trace t = session_trace(4, 20);
  t.synthetic_symbols[0].name = lambda;
  collectd::CollectClient client;
  ASSERT_TRUE(client.connect("uds:" + options.ingest_uds, 2.0));
  ASSERT_TRUE(stream_session(&client, t, 44));
  ASSERT_TRUE(wait_until(
      [&] { return collector.fleet().sessions_folded == 1; }));

  const collectd::FleetFunction want = collector.fleet().functions.at(lambda);
  ASSERT_GT(want.calls, 0u);
  std::string body;
  ASSERT_EQ(query(collector, "/profile", &body), 200);
  auto view = collectd::parse_fleet_profile(body);
  ASSERT_TRUE(view.is_ok()) << view.message();
  bool seen = false;
  for (const auto& fn : view.value().functions) {
    if (fn.name != lambda) continue;
    seen = true;
    EXPECT_EQ(fn.calls, want.calls);
    EXPECT_EQ(fn.sessions, 1u);
    EXPECT_NEAR(fn.total_time_s, want.total_time_s, 1e-12);
    EXPECT_NEAR(fn.time_mean_s, want.time.mean, 1e-15);
  }
  EXPECT_TRUE(seen) << body;
  collector.stop();
}

TEST(Collector, TopEscapesHeartbeatKeys) {
  // A peer's heartbeat key with a quote in it comes back out of /top
  // escaped, so the aggregate stays JSON.
  collectd::CollectorOptions options;
  options.ingest_uds = sock_path("topkey");
  collectd::Collector collector(options);
  ASSERT_TRUE(collector.start());

  collectd::CollectClient client;
  ASSERT_TRUE(client.connect("uds:" + options.ingest_uds, 2.0));
  client.send_hello(45, "key_app");
  client.send_heartbeat("{\"t\":1,\"a\\\"b\":2}");
  std::string top;
  ASSERT_TRUE(wait_until([&] {
    return query(collector, "/top", &top) == 200 && top != "{}";
  }));
  EXPECT_NE(top.find("\"a\\\"b\":2"), std::string::npos) << top;
  const json::NumberFields back = json::read_numbers(top);
  ASSERT_EQ(back.members.size(), 2u) << top;
  EXPECT_EQ(back.members[1].first, "a\"b");
  EXPECT_EQ(back.members[1].second, 2.0);
  client.close();
  collector.stop();
}

}  // namespace
