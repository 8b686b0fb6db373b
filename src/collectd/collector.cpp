#include "collectd/collector.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <vector>

#include "collectd/net.hpp"
#include "collectd/wire.hpp"
#include "common/fastwrite.hpp"
#include "common/json.hpp"
#include "pipeline/analysis.hpp"
#include "telemetry/log.hpp"
#include "telemetry/metrics.hpp"

namespace tempest::collectd {
namespace {

using telemetry::Counter;
using telemetry::Gauge;
using telemetry::Histogram;

constexpr int kPollTimeoutMs = 50;
constexpr std::size_t kHttpRequestCap = 8 * 1024;
constexpr std::size_t kMaxSessionSyncs = 1u << 20;

/// Value of the first `name:` header in an HTTP header block (the
/// request line plus CRLF-separated headers), "" when absent. Header
/// names compare case-insensitively; the value is trimmed of spaces.
std::string header_value(const std::string& headers, const std::string& name) {
  std::size_t pos = headers.find("\r\n");
  while (pos != std::string::npos && pos + 2 < headers.size()) {
    pos += 2;
    const std::size_t eol = headers.find("\r\n", pos);
    const std::size_t colon = headers.find(':', pos);
    if (colon == std::string::npos || (eol != std::string::npos && colon > eol)) {
      pos = eol;
      continue;
    }
    bool match = colon - pos == name.size();
    for (std::size_t i = 0; match && i < name.size(); ++i) {
      match = std::tolower(static_cast<unsigned char>(headers[pos + i])) ==
              std::tolower(static_cast<unsigned char>(name[i]));
    }
    if (match) {
      std::size_t vb = colon + 1;
      std::size_t ve = eol == std::string::npos ? headers.size() : eol;
      while (vb < ve && headers[vb] == ' ') ++vb;
      while (ve > vb && headers[ve - 1] == ' ') --ve;
      return headers.substr(vb, ve - vb);
    }
    pos = eol;
  }
  return "";
}

enum SessionState : int {
  kHandshake = 0,  ///< accepted, HELLO not folded yet
  kLive = 1,       ///< streaming
  kFolded = 2,     ///< BYE processed, merged into the fleet
  kAborted = 3,    ///< discarded (disconnect / protocol error / timeout)
};

const char* state_name(int s) {
  switch (s) {
    case kHandshake: return "handshake";
    case kLive: return "live";
    case kFolded: return "folded";
    case kAborted: return "aborted";
  }
  return "?";
}

/// Fold-side state; touched only by the owning shard thread.
struct SessionFold {
  bool have_meta = false;
  trace::Trace meta;  ///< bulk-empty META image (incl. RUNSTATS trailer)
  std::unique_ptr<pipeline::AnalysisPipeline> pipeline;
  std::vector<trace::ClockSync> syncs;
  std::vector<trace::FnEvent> scratch_events;
  std::vector<trace::TempSample> scratch_samples;
  std::uint64_t last_event_tsc = 0;
  std::uint64_t last_sample_tsc = 0;
  std::uint64_t events = 0;
  std::uint64_t samples = 0;
};

struct SessionInfo {
  std::uint64_t id = 0;
  unsigned shard = 0;

  // Written by the shard thread, read by the query plane.
  std::atomic<int> state{kHandshake};
  std::atomic<std::uint64_t> events{0};
  std::atomic<std::uint64_t> samples{0};
  std::atomic<std::uint64_t> frames{0};
  std::atomic<std::uint64_t> heartbeats{0};
  std::atomic<std::uint64_t> hb_gaps{0};
  std::atomic<std::uint64_t> hb_restarts{0};
  std::atomic<std::uint64_t> last_seq{0};
  /// Collector-clock ms (since Impl::t0) when the session reached a
  /// terminal state; -1 while handshaking/live. Drives the /top
  /// freshness window.
  std::atomic<std::int64_t> finished_at_ms{-1};
  /// Shard thread asks the IO thread to close the connection.
  std::atomic<bool> kill{false};

  std::mutex mu;  ///< guards the strings below
  std::string name;
  std::uint64_t pid = 0;
  std::string last_heartbeat;
  double last_t = 0.0;

  SessionFold fold;  ///< shard thread only
};

struct Msg {
  std::shared_ptr<SessionInfo> sess;
  FrameType type = FrameType::kHello;
  std::string payload;
  bool disconnect = false;  ///< connection ended (clean EOF or error)
  /// IO-thread abort (bad magic / oversized frame): the session is
  /// already marked kAborted; this message just asks the owning shard
  /// thread to tear down the fold, which only it may touch.
  bool abort = false;
};

struct Shard {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Msg> queue;
  bool stop = false;
  std::atomic<std::size_t> depth{0};
  std::atomic<std::size_t> bytes{0};  ///< queued payload bytes
  std::thread thread;
};

struct Conn {
  int fd = -1;
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

  int ingest_uds_fd = -1;
  int ingest_tcp_fd = -1;
  int http_fd = -1;
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
  std::map<std::string, FleetFunction> fleet_functions;
  trace::RunStats fleet_run_stats;
  std::uint64_t sessions_folded = 0;
  std::uint64_t sessions_aborted = 0;

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

  /// Transition to kAborted unless already terminal. Safe from any
  /// thread; returns true for the caller that won the transition (so
  /// counters are bumped exactly once even if the IO thread and a shard
  /// thread abort the same session concurrently).
  bool mark_aborted(SessionInfo* s, const std::string& reason) {
    int st = s->state.load(std::memory_order_acquire);
    do {
      if (st == kFolded || st == kAborted) return false;
    } while (!s->state.compare_exchange_weak(
        st, kAborted, std::memory_order_acq_rel, std::memory_order_acquire));
    s->finished_at_ms.store(now_ms(), std::memory_order_relaxed);
    telemetry::count(Counter::kCollectSessionsAborted);
    {
      const std::lock_guard<std::mutex> lock(fleet_mu);
      ++sessions_aborted;
    }
    telemetry::log_warn("collectd", "session " + std::to_string(s->id) +
                                        " aborted: " + reason);
    s->kill.store(true, std::memory_order_release);
    return true;
  }

  /// Shard-thread abort: marks the session and tears down its fold.
  /// Must only run on the session's owning shard thread — SessionFold
  /// is shard-thread-only state.
  void abort_session(SessionInfo* s, const std::string& reason) {
    if (mark_aborted(s, reason)) wake_io();
    s->fold = SessionFold{};  // discard the partial fold
  }

  void protocol_error(SessionInfo* s, const std::string& what) {
    telemetry::count(Counter::kCollectProtocolErrors);
    abort_session(s, "protocol error: " + what);
  }

  /// IO-thread abort (framing errors seen before the payload ever
  /// reaches a shard). Never touches s->fold: the shard thread may be
  /// folding already-queued frames for this session right now. Instead
  /// an abort message rides the same FIFO queue — by the time the shard
  /// processes it, every earlier frame has been dropped (state is
  /// already kAborted) and the fold can be torn down safely.
  void protocol_error_io(const std::shared_ptr<SessionInfo>& s,
                         const std::string& what) {
    telemetry::count(Counter::kCollectProtocolErrors);
    mark_aborted(s.get(), "protocol error: " + what);
    Msg msg;
    msg.sess = s;
    msg.abort = true;
    enqueue(s->shard, std::move(msg));
  }

  void fold_heartbeat(SessionInfo* s, const std::string& line) {
    const json::NumberFields fields = json::read_numbers(line);
    const double seq_value = fields.get("seq");
    const std::uint64_t seq =
        seq_value >= 1.0 && seq_value < 0x1p64
            ? static_cast<std::uint64_t>(seq_value)
            : 0;
    const double t = fields.get("t");
    if (seq > 0) {
      const std::uint64_t last = s->last_seq.load(std::memory_order_relaxed);
      if (last > 0 && seq > last + 1) {
        const std::uint64_t lost = seq - last - 1;
        s->hb_gaps.fetch_add(lost, std::memory_order_relaxed);
        telemetry::count(Counter::kCollectHeartbeatGaps, lost);
      } else if (last > 0 && seq < last) {
        s->hb_restarts.fetch_add(1, std::memory_order_relaxed);
        telemetry::count(Counter::kCollectRestarts);
      }
      s->last_seq.store(seq, std::memory_order_relaxed);
    }
    {
      const std::lock_guard<std::mutex> lock(s->mu);
      s->last_heartbeat = line;
      s->last_t = t;
    }
    s->heartbeats.fetch_add(1, std::memory_order_relaxed);
    telemetry::count(Counter::kCollectHeartbeats);
  }

  void fold_bye(SessionInfo* s, const Bye& bye) {
    SessionFold& f = s->fold;
    if (bye.events_sent != f.events || bye.samples_sent != f.samples) {
      protocol_error(s, "BYE counts disagree with the stream (events " +
                            std::to_string(bye.events_sent) + " vs " +
                            std::to_string(f.events) + ")");
      return;
    }
    pipeline::AnalysisResult result;
    if (f.pipeline != nullptr) {
      f.pipeline->set_run_stats(f.meta.run_stats);
      result = f.pipeline->finish();
    }
    {
      const std::lock_guard<std::mutex> lock(fleet_mu);
      fold_profile(result.profile, &fleet_functions);
      if (f.meta.run_stats.present) {
        if (fleet_run_stats.present) {
          fleet_run_stats.append(f.meta.run_stats);
        } else {
          fleet_run_stats = f.meta.run_stats;
        }
      }
      ++sessions_folded;
    }
    telemetry::count(Counter::kCollectSessionsFolded);
    s->state.store(kFolded, std::memory_order_release);
    s->finished_at_ms.store(now_ms(), std::memory_order_relaxed);
    s->fold = SessionFold{};  // free the pipeline; the rollup is merged
  }

  void fold_msg(Msg* msg) {
    SessionInfo* s = msg->sess.get();
    const int st = s->state.load(std::memory_order_acquire);
    if (msg->abort) {
      // Deferred teardown for an IO-thread abort: we are the owning
      // shard thread, and FIFO ordering guarantees no earlier frame of
      // this session is still queued ahead of us.
      s->fold = SessionFold{};
      return;
    }
    if (msg->disconnect) {
      if (st != kFolded && st != kAborted) {
        telemetry::count(Counter::kCollectDisconnects);
        abort_session(s, "connection lost before BYE");
      }
      return;
    }
    if (st == kAborted || st == kFolded) return;  // late frames: drop

    const auto fold_start = std::chrono::steady_clock::now();
    telemetry::count(Counter::kCollectFrames);
    telemetry::count(Counter::kCollectBytes, msg->payload.size());
    s->frames.fetch_add(1, std::memory_order_relaxed);
    SessionFold& f = s->fold;

    switch (msg->type) {
      case FrameType::kHello: {
        Hello hello;
        if (!unpack_hello(msg->payload, &hello)) {
          protocol_error(s, "malformed HELLO");
          return;
        }
        if (hello.protocol != kProtocolVersion) {
          protocol_error(s, "protocol version " + std::to_string(hello.protocol));
          return;
        }
        {
          const std::lock_guard<std::mutex> lock(s->mu);
          s->name = hello.name;
          s->pid = hello.pid;
        }
        s->state.store(kLive, std::memory_order_release);
        break;
      }
      case FrameType::kHeartbeat:
        fold_heartbeat(s, msg->payload);
        break;
      case FrameType::kMeta: {
        if (f.have_meta) {
          protocol_error(s, "duplicate META (would reset the fold)");
          return;
        }
        if (!unpack_meta(msg->payload, &f.meta)) {
          protocol_error(s, "malformed META");
          return;
        }
        pipeline::AnalysisOptions aopts;
        aopts.profile = options.profile;
        aopts.timeline_hint = 1u << 12;
        f.pipeline = std::make_unique<pipeline::AnalysisPipeline>(aopts);
        f.pipeline->set_metadata(f.meta);
        f.have_meta = true;
        break;
      }
      case FrameType::kSyncs: {
        if (!unpack_clock_syncs(msg->payload, &f.syncs) ||
            f.syncs.size() > kMaxSessionSyncs) {
          protocol_error(s, "malformed SYNCS");
          return;
        }
        break;
      }
      case FrameType::kEvents: {
        if (!f.have_meta) {
          protocol_error(s, "EVENTS before META");
          return;
        }
        f.scratch_events.clear();
        if (!unpack_fn_events(msg->payload, &f.scratch_events)) {
          protocol_error(s, "malformed EVENTS");
          return;
        }
        std::uint64_t last = f.last_event_tsc;
        for (const auto& e : f.scratch_events) {
          if (e.tsc < last) {
            protocol_error(s, "out-of-order events in stream");
            return;
          }
          last = e.tsc;
        }
        f.last_event_tsc = last;
        f.pipeline->add_fn_events(f.scratch_events.data(),
                                  f.scratch_events.size());
        f.events += f.scratch_events.size();
        s->events.store(f.events, std::memory_order_relaxed);
        telemetry::count(Counter::kCollectEvents, f.scratch_events.size());
        break;
      }
      case FrameType::kSamples: {
        if (!f.have_meta) {
          protocol_error(s, "SAMPLES before META");
          return;
        }
        f.scratch_samples.clear();
        if (!unpack_temp_samples(msg->payload, &f.scratch_samples)) {
          protocol_error(s, "malformed SAMPLES");
          return;
        }
        std::uint64_t last = f.last_sample_tsc;
        for (const auto& ts : f.scratch_samples) {
          if (ts.tsc < last) {
            protocol_error(s, "out-of-order samples in stream");
            return;
          }
          last = ts.tsc;
        }
        f.last_sample_tsc = last;
        f.pipeline->add_temp_samples(f.scratch_samples.data(),
                                     f.scratch_samples.size());
        f.samples += f.scratch_samples.size();
        s->samples.store(f.samples, std::memory_order_relaxed);
        telemetry::count(Counter::kCollectSamples, f.scratch_samples.size());
        break;
      }
      case FrameType::kBye: {
        Bye bye;
        if (!unpack_bye(msg->payload, &bye) || !f.have_meta) {
          protocol_error(s, "malformed BYE");
          return;
        }
        fold_bye(s, bye);
        break;
      }
    }
    telemetry::observe(
        Histogram::kCollectFoldUs,
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - fold_start)
            .count());
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
      fold_msg(&msg);
      // Dropping below the low-water mark may unblock paused sockets.
      if (was_high && shard_low(*sh)) wake_io();
    }
  }

  // -- IO side -----------------------------------------------------------

  std::shared_ptr<SessionInfo> new_session() {
    auto s = std::make_shared<SessionInfo>();
    s->id = next_session_id.fetch_add(1, std::memory_order_relaxed);
    s->shard = static_cast<unsigned>(s->id % shards.size());
    {
      const std::lock_guard<std::mutex> lock(sessions_mu);
      sessions.emplace(s->id, s);
    }
    return s;
  }

  /// Drop the oldest terminal (folded/aborted) sessions beyond the
  /// retention cap. Session ids are monotonic and the map is ordered,
  /// so a forward scan reaps oldest-first. Shard queues hold shared_ptr
  /// references, so erasing here never invalidates in-flight messages.
  void reap_sessions() {
    const std::lock_guard<std::mutex> lock(sessions_mu);
    std::size_t terminal = 0;
    for (const auto& [id, s] : sessions) {
      const int st = s->state.load(std::memory_order_acquire);
      if (st == kFolded || st == kAborted) ++terminal;
    }
    for (auto it = sessions.begin();
         it != sessions.end() && terminal > options.max_terminal_sessions;) {
      const int st = it->second->state.load(std::memory_order_acquire);
      if (st == kFolded || st == kAborted) {
        it = sessions.erase(it);
        --terminal;
      } else {
        ++it;
      }
    }
  }

  /// Parse complete frames off an ingest connection's buffer into its
  /// shard queue. Pauses (returns) when the shard is full; closes with
  /// a protocol error on malformed/oversized frames.
  bool drain_ingest_buffer(Conn* c) {
    Shard& sh = *shards[c->sess->shard];
    std::size_t consumed = 0;
    bool ok = true;
    while (c->in.size() - consumed >= kFrameHeaderBytes) {
      if (shard_full(sh)) {
        c->paused = true;
        break;
      }
      FrameType type;
      std::uint32_t len = 0;
      const HeaderParse hp =
          decode_frame_header(c->in.data() + consumed, &type, &len);
      if (hp != HeaderParse::kOk) {
        protocol_error_io(c->sess, hp == HeaderParse::kBadMagic
                                       ? "bad frame magic"
                                       : "unknown frame type");
        ok = false;
        break;
      }
      if (len > options.max_frame_bytes) {
        protocol_error_io(c->sess, "oversized frame (" + std::to_string(len) +
                                       " bytes)");
        ok = false;
        break;
      }
      if (c->in.size() - consumed < kFrameHeaderBytes + len) break;
      Msg msg;
      msg.sess = c->sess;
      msg.type = type;
      msg.payload.assign(c->in, consumed + kFrameHeaderBytes, len);
      enqueue(c->sess->shard, std::move(msg));
      consumed += kFrameHeaderBytes + len;
    }
    if (consumed > 0) c->in.erase(0, consumed);
    return ok;
  }

  void serve_http(Conn* c) {
    const std::size_t header_end = c->in.find("\r\n\r\n");
    if (header_end == std::string::npos) {
      if (c->in.size() > kHttpRequestCap) {
        c->out = "HTTP/1.0 400 Bad Request\r\nConnection: close\r\n\r\n";
        c->close_after_write = true;
      }
      return;
    }
    telemetry::count(Counter::kCollectHttpRequests);
    const std::size_t line_end = c->in.find("\r\n");
    const std::string request_line = c->in.substr(0, line_end);
    std::string body;
    std::string content_type = "application/json";
    int code = 404;
    std::string target;
    if (request_line.rfind("GET ", 0) == 0) {
      const std::size_t sp = request_line.find(' ', 4);
      target = request_line.substr(4, sp == std::string::npos ? std::string::npos
                                                              : sp - 4);
      const std::string accept =
          header_value(c->in.substr(0, header_end), "accept");
      code = handle(target, accept, &body, &content_type);
    } else {
      code = 405;
    }
    const char* reason = code == 200   ? "OK"
                         : code == 400 ? "Bad Request"
                         : code == 405 ? "Method Not Allowed"
                                       : "Not Found";
    if (code != 200 && body.empty()) {
      body = "{\"error\":" + std::to_string(code) + "}";
      content_type = "application/json";
    }
    c->out = "HTTP/1.0 " + std::to_string(code) + " " + reason +
             "\r\nContent-Type: " + content_type + "\r\nContent-Length: " +
             std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body;
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

  int handle(const std::string& target, const std::string& accept,
             std::string* body, std::string* content_type) const {
    std::string path = target;
    std::string query;
    const std::size_t qmark = target.find('?');
    if (qmark != std::string::npos) {
      path = target.substr(0, qmark);
      query = target.substr(qmark + 1);
    }
    if (path == "/healthz") return handle_healthz(body);
    if (path == "/sessions") return handle_sessions(body);
    if (path == "/profile") return handle_profile(query, body);
    if (path == "/runstats") return handle_runstats(body);
    if (path == "/metrics") {
      return handle_metrics(query, accept, body, content_type);
    }
    if (path == "/top") return handle_top(body);
    return 404;
  }

  int handle_healthz(std::string* body) const {
    std::size_t live = 0;
    {
      const std::lock_guard<std::mutex> lock(sessions_mu);
      for (const auto& [id, s] : sessions) {
        const int st = s->state.load(std::memory_order_acquire);
        if (st == kHandshake || st == kLive) ++live;
      }
    }
    *body = "{\"status\":\"ok\",\"uptime_s\":";
    fastwrite::append_general(*body, uptime_s());
    *body += ",\"sessions_active\":" + std::to_string(live) + "}";
    return 200;
  }

  int handle_sessions(std::string* body) const {
    *body = "{\"sessions\":[";
    bool first = true;
    const std::lock_guard<std::mutex> lock(sessions_mu);
    for (const auto& [id, s] : sessions) {
      if (!first) *body += ",";
      first = false;
      std::string name;
      std::uint64_t pid = 0;
      double last_t = 0.0;
      {
        const std::lock_guard<std::mutex> slock(s->mu);
        name = s->name;
        pid = s->pid;
        last_t = s->last_t;
      }
      *body += "{\"id\":" + std::to_string(id) + ",\"name\":";
      json::append_json_string(body, name);
      *body += ",\"pid\":" + std::to_string(pid);
      *body += ",\"state\":\"";
      *body += state_name(s->state.load(std::memory_order_acquire));
      *body += "\",\"events\":" +
               std::to_string(s->events.load(std::memory_order_relaxed));
      *body += ",\"samples\":" +
               std::to_string(s->samples.load(std::memory_order_relaxed));
      *body += ",\"frames\":" +
               std::to_string(s->frames.load(std::memory_order_relaxed));
      *body += ",\"heartbeats\":" +
               std::to_string(s->heartbeats.load(std::memory_order_relaxed));
      *body += ",\"heartbeat_gaps\":" +
               std::to_string(s->hb_gaps.load(std::memory_order_relaxed));
      *body += ",\"heartbeat_restarts\":" +
               std::to_string(s->hb_restarts.load(std::memory_order_relaxed));
      *body += ",\"last_seq\":" +
               std::to_string(s->last_seq.load(std::memory_order_relaxed));
      *body += ",\"last_t\":";
      fastwrite::append_general(*body, last_t);
      *body += "}";
    }
    *body += "]}";
    return 200;
  }

  int handle_profile(const std::string& query, std::string* body) const {
    std::size_t top = 20;
    if (query.rfind("top=", 0) == 0) {
      const long v = std::strtol(query.c_str() + 4, nullptr, 10);
      if (v > 0) top = static_cast<std::size_t>(v);
    }
    std::vector<std::pair<std::string, FleetFunction>> fns;
    std::uint64_t folded = 0;
    {
      const std::lock_guard<std::mutex> lock(fleet_mu);
      fns.assign(fleet_functions.begin(), fleet_functions.end());
      folded = sessions_folded;
    }
    std::sort(fns.begin(), fns.end(), [](const auto& a, const auto& b) {
      if (a.second.total_time_s != b.second.total_time_s) {
        return a.second.total_time_s > b.second.total_time_s;
      }
      return a.first < b.first;
    });
    if (fns.size() > top) fns.resize(top);
    *body = "{\"sessions_folded\":" + std::to_string(folded) +
            ",\"functions\":[";
    for (std::size_t i = 0; i < fns.size(); ++i) {
      if (i > 0) *body += ",";
      *body += "{\"name\":";
      json::append_json_string(body, fns[i].first);
      *body += ",\"calls\":" + std::to_string(fns[i].second.calls);
      *body += ",\"total_time_s\":";
      fastwrite::append_general(*body, fns[i].second.total_time_s);
      *body += ",\"sessions\":" + std::to_string(fns[i].second.sessions);
      *body += ",\"activations\":" + std::to_string(fns[i].second.time.count);
      *body += ",\"time_mean_s\":";
      fastwrite::append_general(*body, fns[i].second.time.mean);
      *body += ",\"time_var_s2\":";
      fastwrite::append_general(*body, fns[i].second.time.variance());
      *body += "}";
    }
    *body += "]}";
    return 200;
  }

  int handle_runstats(std::string* body) const {
    trace::RunStats rs;
    std::uint64_t folded = 0, aborted = 0;
    {
      const std::lock_guard<std::mutex> lock(fleet_mu);
      rs = fleet_run_stats;
      folded = sessions_folded;
      aborted = sessions_aborted;
    }
    const std::uint64_t accounted = rs.events_recorded + rs.events_suppressed +
                                    rs.events_throttled + rs.events_dropped +
                                    rs.events_overwritten;
    *body = "{\"present\":";
    *body += rs.present ? "true" : "false";
    *body += ",\"sessions_folded\":" + std::to_string(folded);
    *body += ",\"sessions_aborted\":" + std::to_string(aborted);
    *body += ",\"events_recorded\":" + std::to_string(rs.events_recorded);
    *body += ",\"events_dropped\":" + std::to_string(rs.events_dropped);
    *body += ",\"events_suppressed\":" + std::to_string(rs.events_suppressed);
    *body += ",\"events_throttled\":" + std::to_string(rs.events_throttled);
    *body += ",\"events_overwritten\":" + std::to_string(rs.events_overwritten);
    *body += ",\"calls_observed\":" + std::to_string(rs.calls_observed);
    *body += ",\"tempd_ticks\":" + std::to_string(rs.tempd_ticks);
    *body += ",\"tempd_samples\":" + std::to_string(rs.tempd_samples);
    *body += ",\"heartbeats\":" + std::to_string(rs.heartbeats);
    *body += ",\"wall_seconds\":";
    fastwrite::append_general(*body, rs.wall_seconds);
    *body += ",\"tempd_cpu_seconds\":";
    fastwrite::append_general(*body, rs.tempd_cpu_seconds);
    // The conservation invariant, checked server-side so a curl of this
    // endpoint is a fleet-wide lint.
    *body += ",\"conservation_ok\":";
    *body += (!rs.present || rs.calls_observed == accounted) ? "true" : "false";
    *body += "}";
    return 200;
  }

  /// /metrics serves the registry snapshot as heartbeat-schema JSON by
  /// default, or Prometheus text exposition when ?format=prometheus is
  /// given or the Accept header prefers text/plain / OpenMetrics over
  /// JSON. An explicit ?format= always wins over Accept.
  int handle_metrics(const std::string& query, const std::string& accept,
                     std::string* body, std::string* content_type) const {
    bool prometheus = false;
    if (query.find("format=prometheus") != std::string::npos) {
      prometheus = true;
    } else if (query.find("format=json") == std::string::npos) {
      prometheus = accept.find("text/plain") != std::string::npos ||
                   accept.find("application/openmetrics-text") !=
                       std::string::npos;
    }
    std::ostringstream os;
    if (prometheus) {
      telemetry::write_snapshot_prometheus(os, telemetry::metrics().snapshot(),
                                           uptime_s());
      *content_type = "text/plain; version=0.0.4; charset=utf-8";
    } else {
      telemetry::write_snapshot_json(os, telemetry::metrics().snapshot(),
                                     uptime_s());
      *content_type = "application/json";
    }
    *body = std::move(os).str();
    return 200;
  }

  /// Heartbeat-schema aggregate across sessions: counters sum, "t" and
  /// "schema_version" take the max. One fleet-wide line tempest-top's
  /// renderer already understands.
  int handle_top(std::string* body) const {
    std::vector<std::string> lines;
    {
      const std::int64_t now = now_ms();
      const auto window_ms =
          static_cast<std::int64_t>(options.top_freshness_s * 1000.0);
      const std::lock_guard<std::mutex> lock(sessions_mu);
      lines.reserve(sessions.size());
      for (const auto& [id, s] : sessions) {
        // Live fleet view: a finished session's final heartbeat fades
        // out after the freshness window — keeping it forever would
        // double-count every dead run in the aggregate.
        const int st = s->state.load(std::memory_order_acquire);
        if (st == kFolded || st == kAborted) {
          const std::int64_t fin =
              s->finished_at_ms.load(std::memory_order_relaxed);
          if (fin < 0 || now - fin >= window_ms) continue;
        }
        const std::lock_guard<std::mutex> slock(s->mu);
        if (!s->last_heartbeat.empty()) lines.push_back(s->last_heartbeat);
      }
    }
    // Preserve first-seen key order so the output reads like a normal
    // heartbeat line.
    std::vector<std::pair<std::string, double>> merged;
    for (const std::string& line : lines) {
      const json::NumberFields fields = json::read_numbers(line);
      for (const auto& [key, value] : fields.members) {
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
    *body = "{";
    for (std::size_t i = 0; i < merged.size(); ++i) {
      if (i > 0) *body += ",";
      json::append_json_string(body, merged[i].first);
      *body += ":";
      fastwrite::append_general(*body, merged[i].second);
    }
    *body += "}";
    return 200;
  }

  // -- IO loop -----------------------------------------------------------

  void io_loop() {
    std::unordered_map<int, Conn> conns;
    std::vector<struct pollfd> pfds;
    const auto idle_timeout = std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(options.idle_timeout_s));

    auto close_conn = [&](int fd, bool lost) {
      auto it = conns.find(fd);
      if (it == conns.end()) return;
      Conn& c = it->second;
      if (c.sess != nullptr) {
        if (lost) {
          Msg msg;
          msg.sess = c.sess;
          msg.disconnect = true;
          enqueue(c.sess->shard, std::move(msg));
        }
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
      if (ingest_uds_fd >= 0) pfds.push_back({ingest_uds_fd, POLLIN, 0});
      if (ingest_tcp_fd >= 0) pfds.push_back({ingest_tcp_fd, POLLIN, 0});
      if (http_fd >= 0) pfds.push_back({http_fd, POLLIN, 0});
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

      // Listeners.
      for (std::size_t i = 1; i < fixed; ++i) {
        if (!(pfds[i].revents & POLLIN)) continue;
        const int lfd = pfds[i].fd;
        for (;;) {
          const int cfd = ::accept(lfd, nullptr, nullptr);
          if (cfd < 0) break;
          (void)set_nonblocking(cfd);
          Conn c;
          c.fd = cfd;
          c.last_active = now;
          if (lfd == http_fd) {
            c.http = true;
          } else {
            c.sess = new_session();
            telemetry::gauge_set(
                Gauge::kCollectSessionsActive,
                active_conns.fetch_add(1, std::memory_order_relaxed) + 1);
          }
          conns.emplace(cfd, std::move(c));
        }
      }

      // Connections.
      std::vector<std::pair<int, bool>> to_close;  // fd, lost
      for (std::size_t i = fixed; i < pfds.size(); ++i) {
        const int fd = pfds[i].fd;
        auto it = conns.find(fd);
        if (it == conns.end()) continue;
        Conn& c = it->second;
        if ((pfds[i].revents & (POLLERR | POLLNVAL)) != 0) {
          to_close.emplace_back(fd, !c.http);
          continue;
        }
        // POLLHUP alone is NOT treated as EOF: the kernel can report it
        // while unread frames (including BYE) still sit in the socket
        // buffer — notably while a conn is paused for backpressure and
        // POLLIN isn't registered. Only recv() == 0 is authoritative;
        // an ingest peer that hung up gets read to exhaustion once the
        // shard drains. HTTP conns have nothing left to say: close.
        if ((pfds[i].revents & POLLHUP) != 0 && !(pfds[i].revents & POLLIN) &&
            c.http) {
          to_close.emplace_back(fd, false);
          continue;
        }
        if (pfds[i].revents & POLLIN) {
          c.last_active = now;
          bool eof = false;
          char buf[64 * 1024];
          for (;;) {
            const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
            if (n > 0) {
              c.in.append(buf, static_cast<std::size_t>(n));
              // Per-iteration batch cap: bounds each conn's parse buffer
              // (frames larger than this still assemble across
              // iterations) and keeps one fast sender from starving the
              // rest of the poll set.
              if (c.in.size() >= (std::size_t{1} << 20)) break;
              continue;
            }
            if (n == 0) eof = true;
            break;
          }
          if (c.http) {
            serve_http(&c);
          } else {
            if (!drain_ingest_buffer(&c)) {
              to_close.emplace_back(fd, false);  // already aborted
              continue;
            }
          }
          if (eof) {
            if (c.http) {
              to_close.emplace_back(fd, false);
              continue;
            }
            // Do NOT close yet: if backpressure paused parsing, complete
            // frames (including BYE) may still sit in c.in. The late
            // sweep closes once the buffer has fully drained.
            c.read_closed = true;
          }
        }
        if ((pfds[i].revents & POLLOUT) && !c.out.empty()) {
          c.last_active = now;
          const ssize_t n = ::send(fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
          if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
            to_close.emplace_back(fd, !c.http);
            continue;
          }
          if (n > 0) c.out.erase(0, static_cast<std::size_t>(n));
          if (c.out.empty() && c.close_after_write) {
            to_close.emplace_back(fd, false);
            continue;
          }
        }
      }
      for (const auto& [fd, lost] : to_close) close_conn(fd, lost);

      // Paused connections: resume once their shard drained, and parse
      // whatever is still buffered.
      std::vector<std::pair<int, bool>> close_late;
      for (auto& [fd, c] : conns) {
        if (c.sess != nullptr && c.sess->kill.load(std::memory_order_acquire)) {
          close_late.emplace_back(fd, false);
          continue;
        }
        if (c.paused && shard_low(*shards[c.sess->shard])) {
          c.paused = false;
          // The pause was our backpressure, not peer silence — restart
          // the idle clock so the resumed sender isn't instantly reaped.
          c.last_active = now;
          if (!drain_ingest_buffer(&c)) {
            close_late.emplace_back(fd, false);
            continue;
          }
        }
        if (c.read_closed && !c.paused) {
          // Every complete frame has been enqueued (FIFO, so a clean BYE
          // folds before the disconnect message lands); any leftover
          // bytes are a torn frame and the disconnect rightly aborts.
          close_late.emplace_back(fd, true);
          continue;
        }
        // A paused conn is not polled for POLLIN, so last_active cannot
        // advance; reaping it would punish a healthy sender for a full
        // shard. Only unpaused-and-silent peers are idle.
        if (!c.paused && now - c.last_active > idle_timeout) {
          telemetry::count(Counter::kCollectIdleTimeouts);
          close_late.emplace_back(fd, !c.http);
        }
      }
      for (const auto& [fd, lost] : close_late) close_conn(fd, lost);
      reap_sessions();

      std::size_t queued = 0;
      for (const auto& sh : shards) {
        queued += sh->depth.load(std::memory_order_acquire);
      }
      telemetry::gauge_set(Gauge::kCollectQueueFrames,
                           static_cast<std::int64_t>(queued));
    }

    for (auto& [fd, c] : conns) {
      if (c.sess != nullptr) {
        Msg msg;
        msg.sess = c.sess;
        msg.disconnect = true;
        enqueue(c.sess->shard, std::move(msg));
      }
      ::close(fd);
    }
    conns.clear();
  }
};

Collector::Collector(CollectorOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Collector::~Collector() { stop(); }

Status Collector::start() {
  Impl& im = *impl_;
  if (im.running.load(std::memory_order_acquire)) {
    return Status::error("collector already running");
  }
  if (im.options.ingest_uds.empty() && im.options.ingest_tcp.empty()) {
    return Status::error("collector needs at least one ingest endpoint");
  }

  if (!im.options.ingest_uds.empty()) {
    Endpoint ep;
    ep.uds = true;
    ep.path = im.options.ingest_uds;
    auto fd = listen_endpoint(ep, 128);
    if (!fd.is_ok()) return fd.status();
    im.ingest_uds_fd = fd.value();
    (void)set_nonblocking(im.ingest_uds_fd);
  }
  if (!im.options.ingest_tcp.empty()) {
    Endpoint ep;
    if (!parse_endpoint(im.options.ingest_tcp, &ep) || ep.uds) {
      stop();
      return Status::error("malformed ingest TCP endpoint: " +
                           im.options.ingest_tcp);
    }
    auto fd = listen_endpoint(ep, 128);
    if (!fd.is_ok()) {
      stop();
      return fd.status();
    }
    im.ingest_tcp_fd = fd.value();
    (void)set_nonblocking(im.ingest_tcp_fd);
  }
  {
    Endpoint ep;
    if (!parse_endpoint(im.options.http_tcp, &ep) || ep.uds) {
      stop();
      return Status::error("malformed HTTP endpoint: " + im.options.http_tcp);
    }
    auto fd = listen_endpoint(ep, 64);
    if (!fd.is_ok()) {
      stop();
      return fd.status();
    }
    im.http_fd = fd.value();
    (void)set_nonblocking(im.http_fd);
    auto port = local_port(im.http_fd);
    im.http_port = port.is_ok() ? port.value() : 0;
  }

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    stop();
    return Status::error("cannot create wake pipe");
  }
  im.wake_rd = pipe_fds[0];
  im.wake_wr = pipe_fds[1];
  (void)set_nonblocking(im.wake_rd);
  (void)set_nonblocking(im.wake_wr);

  unsigned shard_count = im.options.shards;
  if (shard_count == 0) {
    shard_count = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  }
  im.shards.clear();
  for (unsigned i = 0; i < shard_count; ++i) {
    im.shards.push_back(std::make_unique<Shard>());
  }
  im.t0 = std::chrono::steady_clock::now();
  im.running.store(true, std::memory_order_release);
  for (auto& sh : im.shards) {
    Shard* raw = sh.get();
    raw->thread = std::thread([&im, raw] { im.shard_loop(raw); });
  }
  im.io_thread = std::thread([&im] { im.io_loop(); });
  telemetry::log_info(
      "collectd",
      "listening (ingest " +
          (im.options.ingest_uds.empty() ? im.options.ingest_tcp
                                         : "uds:" + im.options.ingest_uds) +
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
  auto close_fd = [](int* fd) {
    if (*fd >= 0) {
      ::close(*fd);
      *fd = -1;
    }
  };
  close_fd(&im.ingest_uds_fd);
  close_fd(&im.ingest_tcp_fd);
  close_fd(&im.http_fd);
  close_fd(&im.wake_rd);
  close_fd(&im.wake_wr);
  if (!im.options.ingest_uds.empty()) {
    (void)::unlink(im.options.ingest_uds.c_str());
  }
}

std::uint16_t Collector::http_port() const { return impl_->http_port; }

FleetSnapshot Collector::fleet() const {
  FleetSnapshot snap;
  const std::lock_guard<std::mutex> lock(impl_->fleet_mu);
  snap.functions = impl_->fleet_functions;
  snap.run_stats = impl_->fleet_run_stats;
  snap.sessions_folded = impl_->sessions_folded;
  snap.sessions_aborted = impl_->sessions_aborted;
  return snap;
}

int Collector::handle_query(const std::string& target, std::string* body) const {
  std::string content_type;
  return impl_->handle(target, "", body, &content_type);
}

int Collector::handle_query(const std::string& target, const std::string& accept,
                            std::string* body, std::string* content_type) const {
  return impl_->handle(target, accept, body, content_type);
}

}  // namespace tempest::collectd
