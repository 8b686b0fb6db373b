#include "collectd/collector.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <set>
#include <sstream>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "collectd/session_fold.hpp"
#include "collectd/wire.hpp"
#include "common/cli.hpp"
#include "common/fastwrite.hpp"
#include "common/json.hpp"
#include "telemetry/log.hpp"
#include "telemetry/metrics.hpp"

namespace tempest::collectd {
namespace {

using telemetry::Counter;
using telemetry::Gauge;
using telemetry::Histogram;

constexpr int kPollTimeoutMs = 50;

enum SessionState : int {
  kHandshake = 0,  ///< accepted, HELLO not folded yet
  kLive = 1,       ///< streaming
  kFolded = 2,     ///< BYE processed, merged into the fleet
  kAborted = 3,    ///< discarded (disconnect / protocol error / timeout)
};
constexpr const char* kStateNames[] = {"handshake", "live", "folded", "aborted"};

struct SessionInfo {
  std::uint64_t id = 0;
  unsigned shard = 0;

  std::atomic<int> state{kHandshake};
  /// Collector-clock ms (since Impl::t0) when the session reached a
  /// terminal state; -1 while handshaking/live. Drives the /top
  /// freshness window.
  std::atomic<std::int64_t> finished_at_ms{-1};
  /// Asks the IO thread to close the connection.
  std::atomic<bool> kill{false};

  std::mutex mu;  ///< guards what the shard publishes for the query plane
  Hello hello;
  SessionCounters counters;
  json::NumberFields heartbeat;

  /// Owning shard thread only; dropped once the session is terminal.
  std::unique_ptr<SessionFold> fold;
};

bool terminal(const SessionInfo& s) {
  const int st = s.state.load(std::memory_order_acquire);
  return st == kFolded || st == kAborted;
}

struct Msg {
  std::shared_ptr<SessionInfo> sess;
  FrameType type = FrameType::kHello;
  std::string payload;
  /// The connection closed. FIFO order puts this behind every frame of
  /// the session, so the shard may drop the fold; a session that is
  /// not terminal yet was lost before BYE.
  bool end = false;
};

struct Shard {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Msg> queue;
  bool stop = false;
  std::atomic<std::size_t> depth{0};
  std::atomic<std::size_t> bytes{0};  ///< queued payload bytes
  FoldScratch scratch;                ///< this shard's thread only
  std::thread thread;
};

struct Listener {
  int fd = -1;
  bool http = false;
};

struct Conn {
  bool http = false;
  std::string in;
  std::string out;  ///< pending HTTP response bytes
  bool paused = false;
  bool close_after_write = false;
  /// Peer closed its write side. The connection is not torn down until
  /// every complete frame still buffered in `in` has been enqueued —
  /// a sender that sends BYE and immediately exits must still fold even
  /// if its shard queue was full at EOF time.
  bool read_closed = false;
  std::shared_ptr<SessionInfo> sess;
  std::chrono::steady_clock::time_point last_active;
};

}  // namespace

void fold_profile(const parser::RunProfile& profile,
                  std::map<std::string, FleetFunction>* out) {
  std::set<std::string> seen_this_run;
  for (const auto& node : profile.nodes) {
    for (const auto& fn : node.functions) {
      FleetFunction& f = (*out)[fn.name];
      f.calls += fn.calls;
      f.total_time_s += fn.total_time_s;
      if (seen_this_run.insert(fn.name).second) ++f.sessions;
      f.time.merge(Moments::from_variance(fn.time.count, fn.time.mean_s,
                                          fn.time.var_s2));
    }
  }
}

struct Collector::Impl {
  explicit Impl(CollectorOptions opts) : options(std::move(opts)) {}

  CollectorOptions options;
  std::atomic<bool> running{false};

  std::vector<Listener> listeners;
  std::uint16_t http_port = 0;
  int wake_rd = -1;
  int wake_wr = -1;

  std::thread io_thread;
  std::vector<std::unique_ptr<Shard>> shards;
  std::atomic<std::uint64_t> next_session_id{1};
  std::atomic<std::int64_t> active_conns{0};

  mutable std::mutex sessions_mu;
  std::map<std::uint64_t, std::shared_ptr<SessionInfo>> sessions;

  mutable std::mutex fleet_mu;
  FleetSnapshot fleet;  ///< guarded by fleet_mu

  std::chrono::steady_clock::time_point t0;

  // -- shard side --------------------------------------------------------

  void wake_io() {
    if (wake_wr >= 0) {
      const char b = 1;
      ssize_t n;
      do {
        n = ::write(wake_wr, &b, 1);
      } while (n < 0 && errno == EINTR);
    }
  }

  void enqueue(unsigned shard_idx, Msg msg) {
    Shard& sh = *shards[shard_idx];
    {
      const std::lock_guard<std::mutex> lock(sh.mu);
      sh.bytes.fetch_add(msg.payload.size(), std::memory_order_relaxed);
      sh.queue.push_back(std::move(msg));
      sh.depth.store(sh.queue.size(), std::memory_order_release);
    }
    sh.cv.notify_one();
  }

  /// Backpressure watermarks: pause feeding sockets when either the
  /// frame-count or the byte bound is hit, resume only once BOTH have
  /// drained below half.
  bool shard_full(const Shard& sh) const {
    return sh.depth.load(std::memory_order_acquire) >=
               options.max_queue_frames ||
           sh.bytes.load(std::memory_order_acquire) >= options.max_queue_bytes;
  }
  bool shard_low(const Shard& sh) const {
    return sh.depth.load(std::memory_order_acquire) <
               std::max<std::size_t>(1, options.max_queue_frames / 2) &&
           sh.bytes.load(std::memory_order_acquire) <
               std::max<std::size_t>(1, options.max_queue_bytes / 2);
  }

  /// Move a session to `end_state` unless it is terminal already. Safe
  /// from any thread; true only for the caller that wins, so a session
  /// the IO thread and its shard end at once is counted once.
  bool finish(SessionInfo* s, int end_state) {
    int st = s->state.load(std::memory_order_acquire);
    do {
      if (st == kFolded || st == kAborted) return false;
    } while (!s->state.compare_exchange_weak(
        st, end_state, std::memory_order_acq_rel, std::memory_order_acquire));
    s->finished_at_ms.store(now_ms(), std::memory_order_relaxed);
    return true;
  }

  /// Abort a session from any thread: count it and have the IO thread
  /// close its connection. Its partial fold is never merged; the owning
  /// shard drops it (fold_msg).
  void abort_session(SessionInfo* s, const std::string& reason) {
    if (!finish(s, kAborted)) return;
    telemetry::count(Counter::kCollectSessionsAborted);
    {
      const std::lock_guard<std::mutex> lock(fleet_mu);
      ++fleet.sessions_aborted;
    }
    telemetry::log_warn("collectd", "session " + std::to_string(s->id) +
                                        " aborted: " + reason);
    s->kill.store(true, std::memory_order_release);
    wake_io();
  }

  void fold_into_fleet(SessionInfo* s, const pipeline::AnalysisResult& result) {
    {
      const std::lock_guard<std::mutex> lock(fleet_mu);
      if (!finish(s, kFolded)) return;  // the IO thread aborted it meanwhile
      fold_profile(result.profile, &fleet.functions);
      if (result.run_stats.present) {
        if (fleet.run_stats.present) {
          fleet.run_stats.append(result.run_stats);
        } else {
          fleet.run_stats = result.run_stats;
        }
      }
      ++fleet.sessions_folded;
    }
    telemetry::count(Counter::kCollectSessionsFolded);
  }

  /// Apply one frame to the session's fold, then publish what changed.
  void fold_frame(SessionInfo* s, const Msg& msg) {
    const auto fold_start = std::chrono::steady_clock::now();
    telemetry::count(Counter::kCollectFrames);
    telemetry::count(Counter::kCollectBytes, msg.payload.size());
    SessionFold& f = *s->fold;
    const SessionCounters before = f.counters();
    const Status folded = f.apply(msg.type, msg.payload);
    const SessionCounters& after = f.counters();
    using telemetry::count;
    count(Counter::kCollectEvents, after.events - before.events);
    count(Counter::kCollectSamples, after.samples - before.samples);
    count(Counter::kCollectHeartbeats, after.heartbeats - before.heartbeats);
    count(Counter::kCollectHeartbeatGaps, after.heartbeat_gaps - before.heartbeat_gaps);
    count(Counter::kCollectRestarts, after.heartbeat_restarts - before.heartbeat_restarts);
    {
      const std::lock_guard<std::mutex> lock(s->mu);
      s->counters = after;
      if (folded && msg.type == FrameType::kHello) s->hello = f.hello();
      if (folded && msg.type == FrameType::kHeartbeat) s->heartbeat = f.heartbeat();
    }
    if (!folded) {
      telemetry::count(Counter::kCollectProtocolErrors);
      abort_session(s, "protocol error: " + folded.message());
    } else if (msg.type == FrameType::kHello) {
      int handshake = kHandshake;
      s->state.compare_exchange_strong(handshake, kLive,
                                       std::memory_order_acq_rel);
    } else if (f.closed()) {
      fold_into_fleet(s, f.result());
    }
    telemetry::observe(
        Histogram::kCollectFoldUs,
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - fold_start)
            .count());
  }

  void fold_msg(const Msg& msg) {
    SessionInfo* s = msg.sess.get();
    if (!terminal(*s)) {
      if (!msg.end) {
        fold_frame(s, msg);
      } else {
        telemetry::count(Counter::kCollectDisconnects);
        abort_session(s, "connection lost before BYE");
      }
    }
    // However the session ended, only this thread may drop its fold.
    if (terminal(*s)) s->fold.reset();
  }

  void shard_loop(Shard* sh) {
    for (;;) {
      Msg msg;
      bool was_high = false;
      {
        std::unique_lock<std::mutex> lock(sh->mu);
        sh->cv.wait(lock, [&] { return sh->stop || !sh->queue.empty(); });
        if (sh->queue.empty()) return;  // stop && drained
        was_high = !shard_low(*sh);
        msg = std::move(sh->queue.front());
        sh->queue.pop_front();
        sh->depth.store(sh->queue.size(), std::memory_order_release);
        sh->bytes.fetch_sub(msg.payload.size(), std::memory_order_relaxed);
      }
      fold_msg(msg);
      // Dropping below the low-water mark may unblock paused sockets.
      if (was_high && shard_low(*sh)) wake_io();
    }
  }

  // -- IO side -----------------------------------------------------------

  /// Bind a listener on `spec`, which must name a Unix socket iff `uds`.
  Status listen_on(const std::string& spec, bool uds, bool http,
                   const char* what) {
    Endpoint ep;
    if (!parse_endpoint(spec, &ep) || ep.uds != uds) {
      return Status::error(std::string("malformed ") + what + " endpoint: " + spec);
    }
    auto fd = listen_endpoint(ep, http ? 64 : 128);
    if (!fd.is_ok()) return fd.status();
    (void)set_nonblocking(fd.value());
    listeners.push_back({fd.value(), http});
    return Status::ok();
  }

  std::shared_ptr<SessionInfo> new_session() {
    auto s = std::make_shared<SessionInfo>();
    s->id = next_session_id.fetch_add(1, std::memory_order_relaxed);
    s->shard = static_cast<unsigned>(s->id % shards.size());
    s->fold = std::make_unique<SessionFold>(options.profile,
                                            &shards[s->shard]->scratch);
    {
      const std::lock_guard<std::mutex> lock(sessions_mu);
      sessions.emplace(s->id, s);
    }
    return s;
  }

  /// Keep the newest max_terminal_sessions folded/aborted sessions and
  /// drop the rest. Session ids are monotonic and the map is ordered,
  /// so one newest-first walk finds them. Shard queues hold shared_ptr
  /// references, so erasing here never invalidates in-flight messages.
  void reap_sessions() {
    const std::lock_guard<std::mutex> lock(sessions_mu);
    std::size_t kept = 0;
    for (auto it = sessions.end(); it != sessions.begin();) {
      --it;
      if (terminal(*it->second) && ++kept > options.max_terminal_sessions) {
        it = sessions.erase(it);
      }
    }
  }

  /// Enqueue the complete frames buffered on an ingest connection.
  /// Pauses when the shard is full; false after a framing error, which
  /// aborts the session.
  bool drain_ingest_buffer(Conn* c) {
    const Shard& sh = *shards[c->sess->shard];
    std::string_view rest = c->in;
    bool ok = true;
    for (;;) {
      Frame frame;
      const FrameRead read = read_frame(rest, options.max_frame_bytes, &frame);
      if (read == FrameRead::kNeedMore) break;
      if (read != FrameRead::kFrame) {
        telemetry::count(Counter::kCollectProtocolErrors);
        abort_session(c->sess.get(),
                      read == FrameRead::kBadMagic ? "protocol error: bad frame magic"
                      : read == FrameRead::kBadType
                          ? "protocol error: unknown frame type"
                          : "protocol error: oversized frame");
        ok = false;
        break;
      }
      if (shard_full(sh)) {
        c->paused = true;
        break;
      }
      enqueue(c->sess->shard, Msg{c->sess, frame.type, std::string(frame.payload)});
      rest.remove_prefix(frame.size);
    }
    c->in.erase(0, c->in.size() - rest.size());
    return ok;
  }

  void serve_http(Conn* c) {
    HttpRequest request;
    const HttpParse parsed = parse_http_request(c->in, &request);
    if (parsed == HttpParse::kIncomplete) return;
    if (parsed != HttpParse::kTooLarge) {
      telemetry::count(Counter::kCollectHttpRequests);
    }
    HttpReply reply;
    reply.status = parsed == HttpParse::kBadMethod ? 405 : 400;
    if (parsed == HttpParse::kOk) reply = handle(request);
    if (reply.status != 200) reply.body = "{\"error\":" + std::to_string(reply.status) + "}";
    c->out = format_http_response(reply);
    c->close_after_write = true;
    c->in.clear();
  }

  // -- query plane -------------------------------------------------------

  double uptime_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  }

  std::int64_t now_ms() const {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
  }

  FleetSnapshot snapshot() const {
    const std::lock_guard<std::mutex> lock(fleet_mu);
    return fleet;
  }

  HttpReply handle(const HttpRequest& request) const {
    const std::string_view target = request.target;
    const std::size_t qmark = target.find('?');
    const std::string_view path = target.substr(0, qmark);
    const std::string query(
        qmark == std::string_view::npos ? "" : target.substr(qmark + 1));
    HttpReply reply;
    if (path == "/metrics") metrics(query, request.accept, &reply);
    else if (path == "/healthz") reply.body = healthz();
    else if (path == "/sessions") reply.body = sessions_json();
    else if (path == "/profile") reply.body = profile(query);
    else if (path == "/runstats") reply.body = runstats();
    else if (path == "/top") reply.body = top();
    else reply.status = 404;
    return reply;
  }

  std::string healthz() const {
    std::size_t live = 0;
    {
      const std::lock_guard<std::mutex> lock(sessions_mu);
      for (const auto& [id, s] : sessions) {
        if (!terminal(*s)) ++live;
      }
    }
    std::string body = "{\"status\":\"ok\",\"uptime_s\":";
    fastwrite::append_general(body, uptime_s());
    body += ",\"sessions_active\":" + std::to_string(live) + "}";
    return body;
  }

  std::string sessions_json() const {
    std::string body = "{\"sessions\":[";
    const std::lock_guard<std::mutex> lock(sessions_mu);
    for (const auto& [id, s] : sessions) {
      if (body.back() != '[') body += ",";
      const std::lock_guard<std::mutex> slock(s->mu);
      const SessionCounters& c = s->counters;
      body += "{\"id\":" + std::to_string(id) + ",\"name\":";
      json::append_json_string(&body, s->hello.name);
      body += ",\"pid\":" + std::to_string(s->hello.pid);
      body += ",\"state\":\"";
      body += kStateNames[s->state.load(std::memory_order_acquire)];
      body += "\",\"events\":" + std::to_string(c.events);
      body += ",\"samples\":" + std::to_string(c.samples);
      body += ",\"frames\":" + std::to_string(c.frames);
      body += ",\"heartbeats\":" + std::to_string(c.heartbeats);
      body += ",\"heartbeat_gaps\":" + std::to_string(c.heartbeat_gaps);
      body += ",\"heartbeat_restarts\":" + std::to_string(c.heartbeat_restarts);
      body += ",\"last_seq\":" + std::to_string(c.last_seq);
      body += ",\"last_t\":";
      fastwrite::append_general(body, c.last_t);
      body += "}";
    }
    body += "]}";
    return body;
  }

  std::string profile(const std::string& query) const {
    std::size_t top = 20;
    if (query.rfind("top=", 0) == 0) {
      const long v = std::strtol(query.c_str() + 4, nullptr, 10);
      if (v > 0) top = static_cast<std::size_t>(v);
    }
    const FleetSnapshot snap = snapshot();
    std::vector<const std::pair<const std::string, FleetFunction>*> fns;
    fns.reserve(snap.functions.size());
    for (const auto& entry : snap.functions) fns.push_back(&entry);
    std::sort(fns.begin(), fns.end(), [](const auto* a, const auto* b) {
      if (a->second.total_time_s != b->second.total_time_s) {
        return a->second.total_time_s > b->second.total_time_s;
      }
      return a->first < b->first;
    });
    if (fns.size() > top) fns.resize(top);
    std::string body = "{\"sessions_folded\":" +
                       std::to_string(snap.sessions_folded) + ",\"functions\":[";
    for (std::size_t i = 0; i < fns.size(); ++i) {
      const FleetFunction& fn = fns[i]->second;
      if (i > 0) body += ",";
      body += "{\"name\":";
      json::append_json_string(&body, fns[i]->first);
      body += ",\"calls\":" + std::to_string(fn.calls);
      body += ",\"total_time_s\":";
      fastwrite::append_general(body, fn.total_time_s);
      body += ",\"sessions\":" + std::to_string(fn.sessions);
      body += ",\"activations\":" + std::to_string(fn.time.count);
      body += ",\"time_mean_s\":";
      fastwrite::append_general(body, fn.time.mean);
      body += ",\"time_var_s2\":";
      fastwrite::append_general(body, fn.time.variance());
      body += "}";
    }
    body += "]}";
    return body;
  }

  std::string runstats() const {
    const FleetSnapshot snap = snapshot();
    const trace::RunStats& rs = snap.run_stats;
    std::string body = "{\"present\":";
    body += rs.present ? "true" : "false";
    body += ",\"sessions_folded\":" + std::to_string(snap.sessions_folded);
    body += ",\"sessions_aborted\":" + std::to_string(snap.sessions_aborted);
    body += ",\"events_recorded\":" + std::to_string(rs.events_recorded);
    body += ",\"events_dropped\":" + std::to_string(rs.events_dropped);
    body += ",\"events_suppressed\":" + std::to_string(rs.events_suppressed);
    body += ",\"events_throttled\":" + std::to_string(rs.events_throttled);
    body += ",\"events_overwritten\":" + std::to_string(rs.events_overwritten);
    body += ",\"calls_observed\":" + std::to_string(rs.calls_observed);
    body += ",\"tempd_ticks\":" + std::to_string(rs.tempd_ticks);
    body += ",\"tempd_samples\":" + std::to_string(rs.tempd_samples);
    body += ",\"heartbeats\":" + std::to_string(rs.heartbeats);
    body += ",\"wall_seconds\":";
    fastwrite::append_general(body, rs.wall_seconds);
    body += ",\"tempd_cpu_seconds\":";
    fastwrite::append_general(body, rs.tempd_cpu_seconds);
    // The conservation invariant, checked server-side so a curl of this
    // endpoint is a fleet-wide lint.
    body += ",\"conservation_ok\":";
    const bool conserved = !rs.present || rs.calls_observed == rs.accounted();
    body += conserved ? "true" : "false";
    body += "}";
    return body;
  }

  /// /metrics serves the registry snapshot as heartbeat-schema JSON by
  /// default, or Prometheus text exposition when ?format=prometheus is
  /// given or the Accept header prefers text/plain / OpenMetrics over
  /// JSON. An explicit ?format= always wins over Accept.
  void metrics(const std::string& query, const std::string& accept,
               HttpReply* reply) const {
    bool prometheus = false;
    if (query.find("format=prometheus") != std::string::npos) {
      prometheus = true;
    } else if (query.find("format=json") == std::string::npos) {
      prometheus = accept.find("text/plain") != std::string::npos ||
                   accept.find("application/openmetrics-text") !=
                       std::string::npos;
    }
    // The daemon's own high-water mark, read when asked for: the one
    // place its memory is visible from outside.
    telemetry::gauge_set(Gauge::kPeakRssKb, telemetry::read_peak_rss_kb());
    std::ostringstream os;
    if (prometheus) {
      telemetry::write_snapshot_prometheus(os, telemetry::metrics().snapshot(),
                                           uptime_s());
      reply->content_type = "text/plain; version=0.0.4; charset=utf-8";
    } else {
      telemetry::write_snapshot_json(os, telemetry::metrics().snapshot(),
                                     uptime_s());
    }
    reply->body = std::move(os).str();
  }

  /// Heartbeat-schema aggregate across sessions: counters sum; "t",
  /// "schema_version", temperatures and maxima take the max. One
  /// fleet-wide line tempest-top's renderer already understands, in
  /// first-seen key order.
  std::string top() const {
    std::vector<std::pair<std::string, double>> merged;
    {
      const std::int64_t now = now_ms();
      const std::lock_guard<std::mutex> lock(sessions_mu);
      for (const auto& [id, s] : sessions) {
        // Live fleet view: a finished session's final heartbeat fades
        // out after the freshness window — keeping it forever would
        // double-count every dead run in the aggregate.
        if (terminal(*s)) {
          const std::int64_t fin =
              s->finished_at_ms.load(std::memory_order_relaxed);
          if (fin < 0 || static_cast<double>(now - fin) >=
                             options.top_freshness_s * 1000.0) {
            continue;
          }
        }
        const std::lock_guard<std::mutex> slock(s->mu);
        for (const auto& [key, value] : s->heartbeat.members) {
          auto it = std::find_if(merged.begin(), merged.end(),
                                 [&](const auto& p) { return p.first == key; });
          if (it == merged.end()) {
            merged.emplace_back(key, value);
          } else if (key == "t" || key == "schema_version" ||
                     key.rfind("sensor_temp_", 0) == 0 ||
                     (key.size() > 4 &&
                      key.compare(key.size() - 4, 4, "_max") == 0)) {
            it->second = std::max(it->second, value);
          } else {
            it->second += value;
          }
        }
      }
    }
    std::string body = "{";
    for (std::size_t i = 0; i < merged.size(); ++i) {
      if (i > 0) body += ",";
      json::append_json_string(&body, merged[i].first);
      body += ":";
      fastwrite::append_general(body, merged[i].second);
    }
    body += "}";
    return body;
  }

  // -- IO loop -----------------------------------------------------------

  void io_loop() {
    std::unordered_map<int, Conn> conns;
    std::vector<struct pollfd> pfds;
    const auto idle_timeout = std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(options.idle_timeout_s));

    // Closing an ingest connection queues an end message behind its
    // frames: the shard aborts a session lost before BYE and drops the
    // fold of one that already ended.
    auto close_conn = [&](int fd) {
      auto it = conns.find(fd);
      if (it == conns.end()) return;
      const Conn& c = it->second;
      if (c.sess != nullptr) {
        Msg msg;
        msg.sess = c.sess;
        msg.end = true;
        enqueue(c.sess->shard, std::move(msg));
        telemetry::gauge_set(
            Gauge::kCollectSessionsActive,
            active_conns.fetch_sub(1, std::memory_order_relaxed) - 1);
      }
      ::close(fd);
      conns.erase(it);
    };

    while (running.load(std::memory_order_acquire)) {
      pfds.clear();
      pfds.push_back({wake_rd, POLLIN, 0});
      for (const Listener& l : listeners) pfds.push_back({l.fd, POLLIN, 0});
      const std::size_t fixed = pfds.size();
      for (auto& [fd, c] : conns) {
        short events = 0;
        if (!c.paused && !c.close_after_write && !c.read_closed) {
          events |= POLLIN;
        }
        if (!c.out.empty()) events |= POLLOUT;
        pfds.push_back({fd, events, 0});
      }

      const int ready = ::poll(pfds.data(), pfds.size(), kPollTimeoutMs);
      if (ready < 0 && errno != EINTR) break;
      const auto now = std::chrono::steady_clock::now();

      // Wake pipe: drained; its only meaning is "recheck paused/kill".
      if (pfds[0].revents & POLLIN) {
        char buf[64];
        while (::read(wake_rd, buf, sizeof(buf)) > 0) {
        }
      }

      for (std::size_t i = 1; i < fixed; ++i) {
        if (!(pfds[i].revents & POLLIN)) continue;
        const Listener& l = listeners[i - 1];
        for (;;) {
          const int cfd = ::accept(l.fd, nullptr, nullptr);
          if (cfd < 0) break;
          (void)set_nonblocking(cfd);
          Conn c;
          c.http = l.http;
          c.last_active = now;
          if (!l.http) {
            c.sess = new_session();
            telemetry::gauge_set(
                Gauge::kCollectSessionsActive,
                active_conns.fetch_add(1, std::memory_order_relaxed) + 1);
          }
          conns.emplace(cfd, std::move(c));
        }
      }

      std::vector<int> to_close;
      for (std::size_t i = fixed; i < pfds.size(); ++i) {
        const int fd = pfds[i].fd;
        const short revents = pfds[i].revents;
        auto it = conns.find(fd);
        if (it == conns.end()) continue;
        Conn& c = it->second;
        // POLLHUP alone is NOT treated as EOF on ingest: the kernel can
        // report it while unread frames (including BYE) still sit in the
        // socket buffer — notably while a conn is paused for
        // backpressure and POLLIN isn't registered. Only recv() == 0 is
        // authoritative; an ingest peer that hung up gets read to
        // exhaustion once the shard drains. HTTP conns have nothing left
        // to say: close.
        if ((revents & (POLLERR | POLLNVAL)) != 0 ||
            ((revents & POLLHUP) != 0 && !(revents & POLLIN) && c.http)) {
          to_close.push_back(fd);
          continue;
        }
        if (revents & POLLIN) {
          c.last_active = now;
          // Per-iteration batch cap: bounds each conn's parse buffer
          // (frames larger than this still assemble across iterations)
          // and keeps one fast sender from starving the rest of the
          // poll set.
          char buf[64 * 1024];
          ssize_t n = 0;
          do {
            n = ::recv(fd, buf, sizeof(buf), 0);
            if (n > 0) c.in.append(buf, static_cast<std::size_t>(n));
          } while (n > 0 && c.in.size() < (std::size_t{1} << 20));
          const bool eof = n == 0;
          if (c.http) {
            serve_http(&c);
          } else if (!drain_ingest_buffer(&c)) {
            to_close.push_back(fd);
            continue;
          }
          if (eof && c.http) {
            to_close.push_back(fd);
            continue;
          }
          // An ingest EOF does NOT close yet: if backpressure paused
          // parsing, complete frames (including BYE) may still sit in
          // c.in. The sweep below closes once the buffer has drained.
          if (eof) c.read_closed = true;
        }
        if ((revents & POLLOUT) && !c.out.empty()) {
          c.last_active = now;
          const ssize_t n = ::send(fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
          if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
            to_close.push_back(fd);
            continue;
          }
          if (n > 0) c.out.erase(0, static_cast<std::size_t>(n));
          if (c.out.empty() && c.close_after_write) to_close.push_back(fd);
        }
      }
      for (const int fd : to_close) close_conn(fd);

      // The sweep: killed sessions close, paused connections resume once
      // their shard drained, drained half-closed ones and idle ones close.
      to_close.clear();
      for (auto& [fd, c] : conns) {
        if (c.sess != nullptr && c.sess->kill.load(std::memory_order_acquire)) {
          to_close.push_back(fd);
          continue;
        }
        if (c.paused && shard_low(*shards[c.sess->shard])) {
          c.paused = false;
          // The pause was our backpressure, not peer silence — restart
          // the idle clock so the resumed sender isn't instantly reaped.
          c.last_active = now;
          if (!drain_ingest_buffer(&c)) {
            to_close.push_back(fd);
            continue;
          }
        }
        // Every complete frame has been enqueued (FIFO, so a clean BYE
        // folds before the end message lands); any leftover bytes are a
        // torn frame and the end message rightly aborts.
        if (c.read_closed && !c.paused) {
          to_close.push_back(fd);
          continue;
        }
        // A paused conn is not polled for POLLIN, so last_active cannot
        // advance; reaping it would punish a healthy sender for a full
        // shard. Only unpaused-and-silent peers are idle.
        if (!c.paused && now - c.last_active > idle_timeout) {
          telemetry::count(Counter::kCollectIdleTimeouts);
          to_close.push_back(fd);
        }
      }
      for (const int fd : to_close) close_conn(fd);
      reap_sessions();

      std::size_t queued = 0;
      for (const auto& sh : shards) {
        queued += sh->depth.load(std::memory_order_acquire);
      }
      telemetry::gauge_set(Gauge::kCollectQueueFrames,
                           static_cast<std::int64_t>(queued));
    }

    while (!conns.empty()) close_conn(conns.begin()->first);
  }
};

Collector::Collector(CollectorOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Collector::~Collector() { stop(); }

Status Collector::start() {
  Impl& im = *impl_;
  const CollectorOptions& o = im.options;
  if (im.running.load(std::memory_order_acquire)) {
    return Status::error("collector already running");
  }
  if (o.ingest_uds.empty() && o.ingest_tcp.empty()) {
    return Status::error("collector needs at least one ingest endpoint");
  }
  const Status timeout = cli::check_seconds(o.idle_timeout_s);
  if (!timeout) return Status::error("idle timeout: " + timeout.message());

  Status st = Status::ok();
  if (!o.ingest_uds.empty()) {
    st = im.listen_on("uds:" + o.ingest_uds, true, false, "ingest UDS");
  }
  if (st && !o.ingest_tcp.empty()) {
    st = im.listen_on(o.ingest_tcp, false, false, "ingest TCP");
  }
  if (st) st = im.listen_on(o.http_tcp, false, true, "HTTP");
  int pipe_fds[2];
  if (st && ::pipe(pipe_fds) != 0) st = Status::error("cannot create wake pipe");
  if (!st) {
    stop();
    return st;
  }
  const auto port = local_port(im.listeners.back().fd);
  im.http_port = port.is_ok() ? port.value() : 0;
  im.wake_rd = pipe_fds[0];
  im.wake_wr = pipe_fds[1];
  (void)set_nonblocking(im.wake_rd);
  (void)set_nonblocking(im.wake_wr);

  unsigned shard_count = o.shards;
  if (shard_count == 0) {
    shard_count = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  }
  im.t0 = std::chrono::steady_clock::now();
  im.running.store(true, std::memory_order_release);
  im.shards.clear();
  for (unsigned i = 0; i < shard_count; ++i) {
    Shard* sh = im.shards.emplace_back(std::make_unique<Shard>()).get();
    sh->thread = std::thread([&im, sh] { im.shard_loop(sh); });
  }
  im.io_thread = std::thread([&im] { im.io_loop(); });
  telemetry::log_info(
      "collectd",
      "listening (ingest " +
          (o.ingest_uds.empty() ? o.ingest_tcp : "uds:" + o.ingest_uds) +
          ", http 127.0.0.1:" + std::to_string(im.http_port) + ", " +
          std::to_string(shard_count) + " shards)");
  return Status::ok();
}

void Collector::stop() {
  Impl& im = *impl_;
  if (im.running.exchange(false, std::memory_order_acq_rel)) {
    im.wake_io();
    if (im.io_thread.joinable()) im.io_thread.join();
    for (auto& sh : im.shards) {
      {
        const std::lock_guard<std::mutex> lock(sh->mu);
        sh->stop = true;
      }
      sh->cv.notify_one();
    }
    for (auto& sh : im.shards) {
      if (sh->thread.joinable()) sh->thread.join();
    }
  }
  for (const Listener& l : im.listeners) ::close(l.fd);
  im.listeners.clear();
  for (int* fd : {&im.wake_rd, &im.wake_wr}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
  if (!im.options.ingest_uds.empty()) {
    (void)::unlink(im.options.ingest_uds.c_str());
  }
}

std::uint16_t Collector::http_port() const { return impl_->http_port; }

FleetSnapshot Collector::fleet() const { return impl_->snapshot(); }

HttpReply Collector::handle_query(const HttpRequest& request) const {
  return impl_->handle(request);
}

}  // namespace tempest::collectd
