// Per-thread event buffers.
//
// The instrumentation hot path (every function entry/exit) appends a
// fixed-size record to a thread-local chunked buffer: no locks, no
// branching beyond a chunk-full check, and allocation only once per
// 64Ki events. This is what keeps Tempest's overhead under the paper's
// 7% bound. Buffers are drained once, at session stop, by one merge
// that writes the trace's event vector and unmaps each chunk as soon as
// it has been merged.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_annotations.hpp"
#include "common/tsc.hpp"
#include "core/admission.hpp"
#include "trace/trace.hpp"

namespace tempest::core {

/// Append-only chunked store of FnEvents for a single thread. Events
/// are pushed with non-decreasing timestamps while the thread keeps one
/// clock, so a buffer is one time-ordered run, or a few when a clock
/// rebind steps its timestamps back; the registry's drain merges the
/// runs of every thread straight into the trace.
///
/// Optionally bounded (set_limit): once the cap is reached the buffer
/// switches to a single scratch chunk that newer events overwrite, so a
/// runaway workload costs bounded memory instead of OOM — and the drop
/// is *loud*: every lost event is counted (exactly), published to the
/// telemetry registry, surfaced in the trace's RUNSTATS trailer, and
/// flagged by tempest-lint. The hot path stays one compare + one store
/// either way; all cap logic lives in the cold new_chunk path.
///
/// Alternatively a flight-recorder ring (set_ring): the buffer keeps at
/// most N chunks and recycles the *oldest* when full, so what survives
/// is always the most recent window — the opposite drop policy from the
/// cap (which keeps the head and drops the tail). Overwritten events
/// are counted exactly, for the same conservation story.
class EventBuffer {
 public:
  static constexpr std::size_t kChunkSize = 64 * 1024;

  /// kChunkSize events in their own anonymous page mapping. Releasing
  /// one unmaps it, so its pages leave the process at once: a malloc'd
  /// 1.5 MiB block can come from a heap arena that never shrinks (glibc
  /// raises its mmap threshold once a larger block has been freed), and
  /// the drain's footprint relies on merged chunks really going away.
  class Chunk {
   public:
    Chunk() = default;
    /// Map a fresh chunk (pages are zero-filled on first touch); throws
    /// std::bad_alloc when the kernel refuses.
    static Chunk map();
    ~Chunk() { release(); }
    Chunk(Chunk&& other) noexcept;
    Chunk& operator=(Chunk&& other) noexcept;
    Chunk(const Chunk&) = delete;
    Chunk& operator=(const Chunk&) = delete;

    trace::FnEvent* data() const { return data_; }
    /// Unmap now; idempotent.
    void release();

   private:
    trace::FnEvent* data_ = nullptr;
  };

  /// One chunk's retained events, listed for the registry's drain.
  struct Slice {
    const trace::FnEvent* begin = nullptr;
    const trace::FnEvent* end = nullptr;
    Chunk* chunk = nullptr;  ///< null for the write head: never released
  };

  void push(const trace::FnEvent& e) {
    // pos_ starts at kChunkSize, so the empty buffer takes the same
    // (predictable, almost-never-taken) branch as a full chunk: exactly
    // one compare on the instrumentation hot path.
    if (pos_ == kChunkSize) new_chunk();
    active_[pos_++] = e;
  }

  /// Cap stored events at roughly `max_events` (rounded up to whole
  /// chunks; 0 = unbounded, the default). Call before recording starts.
  void set_limit(std::size_t max_events);

  /// Flight-recorder posture: retain roughly `max_events` (rounded up
  /// to whole chunks, min 2 so there is always a full chunk behind the
  /// write head), recycling the oldest chunk when full. 0 disables.
  /// Mutually exclusive with set_limit; ring wins when both are set.
  void set_ring(std::size_t max_events);

  bool ring() const { return ring_chunks_ != 0; }

  /// Events retained (excludes dropped ones).
  std::size_t size() const {
    if (chunks_.empty()) return 0;
    const std::size_t last = dropping_ ? kChunkSize : pos_;
    return (chunks_.size() - 1) * kChunkSize + last;
  }

  /// Events lost to the cap so far (exact).
  std::uint64_t dropped() const { return dropped_ + (dropping_ ? pos_ : 0); }

  /// Events recycled by the ring so far (exact; excludes trim at drain).
  std::uint64_t overwritten() const { return overwritten_; }

  /// Write-head position as an opaque monotonic value: advances on
  /// every push, never repeats within a session. The throttle's shadow
  /// stack snapshots it after an enter push; an unchanged cursor at the
  /// matching exit proves the enter is still the newest event (leaf
  /// call), making try_pop_last safe.
  std::uint64_t cursor() const {
    // kChunkSize = 2^16 and pos_ ranges 0..kChunkSize inclusive.
    return (chunk_seq_ << 17) | pos_;
  }

  /// Retract the newest event iff it is an *enter* for `addr` (the
  /// min-duration elision). Only sound straight after a cursor match.
  bool try_pop_last(std::uint64_t addr) {
    if (active_ == nullptr || pos_ == 0) return false;
    const trace::FnEvent& last = active_[pos_ - 1];
    if (last.addr != addr || last.kind != trace::FnEventKind::kEnter) {
      return false;
    }
    --pos_;
    return true;
  }

  /// Append one Slice per chunk, oldest first, covering the retained
  /// events. A nonzero `min_tsc` (TEMPEST_RING_SECONDS) skips the events
  /// stamped before it and counts them into *trimmed: whole chunks whose
  /// last event predates it, then a binary search inside the boundary
  /// chunk. Skipped chunks stay listed, empty, so the drain frees them.
  void slices(std::uint64_t min_tsc, std::vector<Slice>* out,
              std::uint64_t* trimmed);

  /// After a drain released every listed chunk but the write head: park
  /// the write head, where a hook racing the drain may still land, and
  /// leave the buffer empty.
  void finish_drain();

  /// Publish not-yet-published stored/dropped counts to the telemetry
  /// registry (chunk boundaries publish eagerly; this flushes the
  /// remainder). Idempotent; called at drain.
  void publish_telemetry();

 private:
  void new_chunk();

  trace::FnEvent* active_ = nullptr;  ///< current write target chunk
  std::size_t pos_ = kChunkSize;
  std::vector<Chunk> chunks_;
  Chunk scratch_;  ///< overwrite target once capped
  Chunk parked_;   ///< drained write head, kept for racing hooks
  std::size_t max_chunks_ = 0;                 ///< 0 = unbounded
  std::size_t ring_chunks_ = 0;                ///< 0 = not a ring
  bool dropping_ = false;
  std::uint64_t chunk_seq_ = 0;          ///< new_chunk calls (cursor epoch)
  std::uint64_t dropped_ = 0;            ///< completed scratch wraps only
  std::uint64_t overwritten_ = 0;        ///< events recycled by the ring
  std::uint64_t published_stored_ = 0;   ///< kEventsRecorded already counted
  std::uint64_t published_dropped_ = 0;  ///< kEventsDropped already counted
  std::uint64_t published_overwritten_ = 0;  ///< kEventsOverwritten counted
};

/// Everything the hooks need per thread, reachable via one TLS pointer.
struct ThreadState {
  std::uint32_t thread_id = 0;
  std::uint16_t node_id = 0;
  std::uint16_t core = 0;
  const VirtualTsc* clock = nullptr;  ///< node clock; nullptr = global
  /// Phase counter for 1-in-1024 probe-cost self-sampling. Plain (not
  /// atomic): TLS-confined like the buffer, never read cross-thread
  /// until drain.
  std::uint32_t probe_tick = 0;
  EventBuffer events;

  // Admission accounting. Plain u64s, TLS-confined (single writer);
  // read cross-thread only at drain/snapshot when the recorder is
  // quiesced. `admitted` counts events that reached the buffer (elision
  // retracts), `suppressed` the filter rejections, `throttled` the rate
  // cap / min-duration rejections; calls_observed is their sum.
  std::uint64_t admitted = 0;
  std::uint64_t suppressed = 0;
  std::uint64_t throttled = 0;
  std::uint64_t published_suppressed = 0;  ///< telemetry already counted
  std::uint64_t published_throttled = 0;

  /// Publish the suppressed and throttled counts telemetry has not yet
  /// seen: the hooks call it once a block has built up, the drain for
  /// the exact remainder.
  void publish_rejections();

  /// Per-thread throttle machinery, created lazily on the first hook
  /// call that reaches the throttle layer.
  std::unique_ptr<ThrottleState> throttle;

  std::uint64_t now() const {
    const std::uint64_t t = rdtsc();
    return clock != nullptr ? clock->translate(t) : t;
  }
};

/// Exact per-process admission totals, summed at drain/snapshot time
/// from the quiesced per-thread counters. RUNSTATS uses these rather
/// than the telemetry counters: the counters are published at chunk /
/// block granularity for the live heartbeat and over-count retained
/// events in ring mode (a recycled chunk was already published).
struct DrainTotals {
  std::uint64_t retained = 0;     ///< events that made it into the trace
  std::uint64_t dropped = 0;      ///< lost to the cap
  std::uint64_t overwritten = 0;  ///< recycled by the ring + trimmed at drain
  std::uint64_t admitted = 0;     ///< = retained + dropped + overwritten
  std::uint64_t suppressed = 0;
  std::uint64_t throttled = 0;

  std::uint64_t observed() const { return admitted + suppressed + throttled; }
};

/// Owns ThreadStates for every thread that ever recorded an event.
/// Registration takes a mutex once per thread; the hot path never does.
///
/// Concurrency model: each ThreadState is written only by its owning
/// thread (TLS-confined); `mu_` protects the registry containers. A
/// reset() retires — but never destroys — the states of the previous
/// generation, so a thread that is mid-record while another thread
/// resets keeps writing into a retired (leaked-until-registry-death)
/// buffer instead of freed memory; its next current() call
/// re-registers under the new generation. A drained state keeps only
/// its write-head chunk, so a retired one costs at most one chunk.
class ThreadRegistry {
 public:
  /// Get (or create) the calling thread's state.
  ThreadState* current() EXCLUDES(mu_);

  /// Rebind the calling thread to a node/clock (used by the
  /// message-passing runtime when a rank starts on a simulated node).
  void bind_current(std::uint16_t node_id, std::uint16_t core, const VirtualTsc* clock)
      EXCLUDES(mu_);

  /// Per-thread event cap applied to every subsequently registered
  /// thread (0 = unbounded). Threads registered before the call keep
  /// their old limit — set it before the session records.
  void set_buffer_limit(std::size_t max_events_per_thread) EXCLUDES(mu_);

  /// Flight-recorder ring size applied to every subsequently registered
  /// thread (0 = off). Wins over set_buffer_limit. Set before recording.
  void set_buffer_ring(std::size_t ring_events_per_thread) EXCLUDES(mu_);

  /// Drain all buffers into a trace (call only when threads are
  /// quiesced): one stable merge of every thread's time-ordered runs
  /// appends the events to trace->fn_events in timestamp order, ties to
  /// the earlier-registered thread and then to buffer order — exactly
  /// what a stable sort of the registration-order concatenation gives.
  /// The destination is reserved once, and each chunk is unmapped as
  /// soon as the merge has consumed it, so the drain never holds more
  /// than one copy of the events plus a chunk per run. The write-head
  /// chunks stay mapped (a hook racing stop() may still write there) and
  /// every buffer is left empty.
  ///
  /// `ring_ticks` (nonzero only in TEMPEST_RING_SECONDS mode) trims each
  /// thread's buffer to events newer than its clock's "now minus the
  /// window"; trimmed events count as overwritten. `totals`, when
  /// non-null, receives the exact admission accounting for RUNSTATS.
  void drain_into(trace::Trace* trace, std::uint64_t ring_ticks,
                  DrainTotals* totals) EXCLUDES(mu_);

  /// Like drain_into but non-destructive and without telemetry flushes:
  /// merges a copy of the retained window out for a flight-recorder
  /// snapshot while the session is merely paused (hooks disarmed), not
  /// stopped, and releases nothing.
  /// Thread ids/cores are appended to trace->threads as in drain_into.
  void snapshot_into(trace::Trace* trace, std::uint64_t ring_ticks,
                     DrainTotals* totals) EXCLUDES(mu_);

  /// Total buffered events across threads. Call only when recording
  /// threads are quiesced — it reads every live buffer (diagnostics).
  std::size_t total_events() EXCLUDES(mu_);

  /// Start a new registration generation: subsequent events register
  /// fresh states with ids from 0. Previous-generation states are
  /// retired (kept alive until the registry dies) so concurrent
  /// recorders never touch freed memory; their in-flight events are
  /// dropped, not drained.
  void reset() EXCLUDES(mu_);

 private:
  ThreadState* register_thread() EXCLUDES(mu_);

  /// Shared body of drain_into (`drain` set: flush telemetry, release
  /// merged chunks) and snapshot_into. REQUIRES(mu_) via callers.
  void collect_into(trace::Trace* trace, std::uint64_t ring_ticks,
                    DrainTotals* totals, bool drain) REQUIRES(mu_);

  common::Mutex mu_;
  std::vector<std::unique_ptr<ThreadState>> threads_ GUARDED_BY(mu_);
  std::vector<std::unique_ptr<ThreadState>> retired_ GUARDED_BY(mu_);
  std::uint32_t next_id_ GUARDED_BY(mu_) = 0;
  std::size_t buffer_limit_ GUARDED_BY(mu_) = 0;
  std::size_t buffer_ring_ GUARDED_BY(mu_) = 0;
};

}  // namespace tempest::core
