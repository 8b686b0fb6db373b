// The tempest-collectd collector: sharded live ingestion of recording
// sessions plus an HTTP/1.0 JSON query plane.
//
// Architecture (DESIGN.md §14). Each decision about peer bytes is a
// pure function, testable without a socket, in one of three planes:
// ingest (wire.hpp's read_frame cuts frames), fold (session_fold.hpp's
// SessionFold runs the session protocol) and query (net.hpp parses
// HTTP). This file keeps the rest:
//
//   * One non-blocking poll() IO thread owns every socket: listeners,
//     accepted connections, and a self-pipe the fold shards wake it
//     with. It enqueues frames and never folds, so a slow fold cannot
//     stall accept/heartbeat traffic.
//   * K fold shards, each a thread with a bounded frame queue and one
//     unpack scratch. A session is pinned to shard (session_id % K), so
//     its frames fold in FIFO order on one thread with no fold-side
//     locking, through the incremental analysis core the offline
//     parser uses, folding calls and time only: O(functions + open
//     activations) per session, never O(events).
//   * Backpressure: when a session's shard queue is full, the IO
//     thread stops reading that connection (kernel socket buffers push
//     back to the sender) and resumes once the shard drains below half.
//   * Disconnects: only a session that completed its BYE is folded
//     into the fleet rollup. A connection lost, timed out, or
//     protocol-errored before BYE aborts the session — its partial fold
//     is discarded and counted, never silently merged.
//   * The session table: after each frame the shard publishes the
//     session's counters, HELLO and parsed last heartbeat, which
//     /sessions and /top render.
//
// The query plane serves /healthz, /sessions, /profile?top=N,
// /runstats, /metrics (the registry snapshot), and /top (a
// heartbeat-schema aggregate across live sessions for
// `tempest-top --connect`).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "collectd/net.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "parser/profile.hpp"
#include "trace/trace.hpp"

namespace tempest::collectd {

struct CollectorOptions {
  /// Unix-domain ingest socket path ("" = disabled).
  std::string ingest_uds;
  /// TCP ingest endpoint "host:port" ("" = disabled). At least one
  /// ingest endpoint must be configured.
  std::string ingest_tcp;
  /// HTTP query plane endpoint; port 0 binds ephemerally (read it back
  /// with http_port()).
  std::string http_tcp = "127.0.0.1:0";
  /// Fold shards; 0 = auto (min(4, hardware_concurrency)).
  unsigned shards = 0;
  /// Reject any frame whose payload exceeds this.
  std::size_t max_frame_bytes = std::size_t{8} << 20;
  /// Bounded per-shard queue; a full queue pauses the feeding sockets.
  std::size_t max_queue_frames = 256;
  /// Byte bound on each shard's queued payloads. Frames can be large
  /// (up to max_frame_bytes), so the frame-count bound alone would let
  /// a queue hold hundreds of MiB; whichever limit hits first pauses.
  std::size_t max_queue_bytes = std::size_t{32} << 20;
  /// Reap connections idle this long (slow-loris guard; also applies
  /// to ingest sessions that stop sending without BYE). Connections
  /// paused for shard backpressure are exempt — they are waiting on
  /// us, not silent. start() refuses a value outside
  /// cli::check_seconds's range.
  double idle_timeout_s = 30.0;
  /// Retain at most this many folded/aborted sessions in the /sessions
  /// detail map; the oldest beyond the cap are reaped so a long-running
  /// daemon ingesting many short runs stays bounded. Fleet rollups
  /// (profile, runstats, folded/aborted counts) are kept separately and
  /// survive reaping.
  std::size_t max_terminal_sessions = 512;
  /// /top is a live fleet view: a finished (folded/aborted) session's
  /// final heartbeat keeps contributing to the aggregate for this long
  /// after it ends, then drops out — a fleet of short runs reads
  /// continuously, but dead sessions are never double-counted forever.
  /// 0 excludes finished sessions immediately.
  double top_freshness_s = 60.0;
  /// Profile options for the per-session folds (unit, significance).
  parser::ProfileOptions profile;
};

/// One function's fleet-wide rollup.
struct FleetFunction {
  std::uint64_t calls = 0;
  double total_time_s = 0.0;
  std::uint64_t sessions = 0;  ///< folded sessions that ran it
  /// Per-activation duration moments (seconds) pooled across every
  /// folded session, so `tempest-diff --poll` can score fleet-level
  /// drift with the same Welch statistic the offline diff uses.
  Moments time;
};

/// Roll one run's profile into a fleet function map — exactly the fold
/// the collector applies when a session completes, exposed so tests
/// can aggregate an offline RankFanIn result identically.
void fold_profile(const parser::RunProfile& profile,
                  std::map<std::string, FleetFunction>* out);

struct FleetSnapshot {
  std::map<std::string, FleetFunction> functions;
  trace::RunStats run_stats;  ///< count-weighted append-fold, conservation-safe
  std::uint64_t sessions_folded = 0;
  std::uint64_t sessions_aborted = 0;
};

class Collector {
 public:
  explicit Collector(CollectorOptions options);
  ~Collector();

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  /// Bind listeners, spawn the IO thread and fold shards.
  Status start();
  /// Drain queues, join threads, close sockets. Idempotent.
  void stop();

  /// Bound TCP port of the query plane (after start()).
  std::uint16_t http_port() const;

  /// Current fleet rollup (folded sessions only).
  FleetSnapshot fleet() const;

  /// Serve one query-plane request (e.g. {"/profile?top=5"}) without a
  /// socket: the reply the HTTP listener would send. /metrics serves
  /// Prometheus text when the target says format=prometheus or the
  /// Accept value prefers text/plain; everything else is JSON.
  HttpReply handle_query(const HttpRequest& request) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tempest::collectd
