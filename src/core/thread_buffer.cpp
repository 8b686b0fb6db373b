#include "core/thread_buffer.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <new>
#include <string>
#include <utility>

#include "telemetry/log.hpp"
#include "telemetry/metrics.hpp"

namespace tempest::core {
namespace {

struct TlsSlot {
  ThreadState* state = nullptr;
  std::uint64_t generation = 0;
};

thread_local TlsSlot tls_slot;

// Generation bumps on reset() so stale TLS pointers from a previous
// session re-register instead of recording into a retired state
// forever. Atomic: recording threads poll it without the registry lock.
std::atomic<std::uint64_t> g_generation{1};

constexpr std::size_t kChunkBytes = EventBuffer::kChunkSize * sizeof(trace::FnEvent);

using Slice = EventBuffer::Slice;

/// A non-decreasing stretch of the drained events inside one slice.
struct Segment {
  const trace::FnEvent* begin;
  const trace::FnEvent* end;
  std::size_t slice;
};

/// Stable merge of `slices` (every thread's chunks, registration order)
/// into `out`. The slices' concatenation splits into its maximal
/// non-decreasing runs — one per thread, more where a clock rebind
/// stepped a thread's timestamps back — and one k-way merge takes the
/// smallest head each step, ties to the lower run: the result equals a
/// stable sort of the concatenation. With `release` set each chunk is
/// unmapped once every segment in it has been merged.
void merge_slices(const std::vector<Slice>& slices, bool release,
                  std::vector<trace::FnEvent>* out) {
  std::vector<Segment> segs;
  std::vector<std::size_t> run_first{0};  // first segment of each run
  std::vector<std::uint32_t> pending(slices.size(), 0);
  std::size_t total = 0;
  const trace::FnEvent* prev = nullptr;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const Slice& s = slices[i];
    const trace::FnEvent* b = s.begin;
    for (const trace::FnEvent* p = s.begin; p != s.end; prev = p++) {
      if (prev == nullptr || p->tsc >= prev->tsc) continue;
      if (p != b) segs.push_back({b, p, i});
      run_first.push_back(segs.size());
      b = p;
    }
    if (b != s.end) segs.push_back({b, s.end, i});
    total += static_cast<std::size_t>(s.end - s.begin);
  }
  run_first.push_back(segs.size());
  for (const Segment& g : segs) ++pending[g.slice];

  const auto done = [&](std::size_t slice) {
    if (release && slices[slice].chunk != nullptr) slices[slice].chunk->release();
  };
  // Chunks with nothing left to merge (trimmed away, or empty) go first.
  for (std::size_t i = 0; i < slices.size(); ++i) {
    if (pending[i] == 0) done(i);
  }
  out->reserve(out->size() + total);

  struct Cursor {
    const trace::FnEvent* p;
    const trace::FnEvent* end;
    std::size_t seg;
    std::size_t seg_end;
  };
  // The heap holds each run's head timestamp beside its index, so a
  // comparison touches no cursor; equal timestamps go to the lower run.
  struct Head {
    std::uint64_t key;
    std::uint32_t run;
  };
  std::vector<Cursor> cur;
  std::vector<Head> heap;
  for (std::size_t r = 0; r + 1 < run_first.size(); ++r) {
    const std::size_t g = run_first[r];
    if (g == run_first[r + 1]) continue;  // no events at all
    heap.push_back({segs[g].begin->tsc, static_cast<std::uint32_t>(cur.size())});
    cur.push_back({segs[g].begin, segs[g].end, g, run_first[r + 1]});
  }
  const auto before = [](const Head& a, const Head& b) {
    return a.key < b.key || (a.key == b.key && a.run < b.run);
  };
  const auto sift_down = [&](std::size_t i) {
    for (;;) {
      std::size_t m = 2 * i + 1;
      if (m >= heap.size()) return;
      if (m + 1 < heap.size() && before(heap[m + 1], heap[m])) ++m;
      if (!before(heap[m], heap[i])) return;
      std::swap(heap[i], heap[m]);
      i = m;
    }
  };
  for (std::size_t i = heap.size() / 2; i-- > 0;) sift_down(i);

  while (heap.size() > 1) {
    Cursor& c = cur[heap[0].run];
    out->push_back(*c.p);
    if (++c.p == c.end) {
      if (--pending[segs[c.seg].slice] == 0) done(segs[c.seg].slice);
      if (++c.seg == c.seg_end) {
        heap[0] = heap.back();
        heap.pop_back();
        sift_down(0);
        continue;
      }
      c.p = segs[c.seg].begin;
      c.end = segs[c.seg].end;
    }
    heap[0].key = c.p->tsc;
    sift_down(0);
  }
  if (heap.empty()) return;
  // One run left: copy its remaining segments whole.
  Cursor& c = cur[heap[0].run];
  for (;;) {
    out->insert(out->end(), c.p, c.end);
    if (--pending[segs[c.seg].slice] == 0) done(segs[c.seg].slice);
    if (++c.seg == c.seg_end) break;
    c.p = segs[c.seg].begin;
    c.end = segs[c.seg].end;
  }
}

}  // namespace

EventBuffer::Chunk EventBuffer::Chunk::map() {
  void* p = ::mmap(nullptr, kChunkBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  Chunk chunk;
  chunk.data_ = static_cast<trace::FnEvent*>(p);
  return chunk;
}

EventBuffer::Chunk::Chunk(Chunk&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)) {}

EventBuffer::Chunk& EventBuffer::Chunk::operator=(Chunk&& other) noexcept {
  if (this != &other) {
    release();
    data_ = std::exchange(other.data_, nullptr);
  }
  return *this;
}

void EventBuffer::Chunk::release() {
  if (data_ != nullptr) ::munmap(data_, kChunkBytes);
  data_ = nullptr;
}

void EventBuffer::new_chunk() {
  using telemetry::Counter;
  ++chunk_seq_;  // cursor epoch: every chunk transition advances it
  if (dropping_) {
    // Scratch wrapped: the kChunkSize events it held are gone for good.
    dropped_ += kChunkSize;
    telemetry::count(Counter::kEventsDropped, kChunkSize);
    published_dropped_ += kChunkSize;
    pos_ = 0;
    return;
  }
  if (!chunks_.empty()) {
    // The chunk that just filled becomes visible to telemetry here —
    // chunk-granular publication keeps the per-event hot path free of
    // atomics while the heartbeat still tracks recording rate live. (In
    // ring mode this counts *pushes*; RUNSTATS takes the exact retained
    // count from the drain totals instead.)
    telemetry::count(Counter::kEventsRecorded, kChunkSize);
    published_stored_ += kChunkSize;
  }
  if (ring_chunks_ != 0 && chunks_.size() >= ring_chunks_) {
    // Flight-recorder posture: recycle the *oldest* chunk so the buffer
    // always holds the most recent window. The recycled events are gone;
    // count them exactly and publish so tempest-top can watch the ring
    // churn live.
    Chunk oldest = std::move(chunks_.front());
    chunks_.erase(chunks_.begin());
    chunks_.push_back(std::move(oldest));
    active_ = chunks_.back().data();
    pos_ = 0;
    overwritten_ += kChunkSize;
    published_overwritten_ += kChunkSize;
    telemetry::count(Counter::kEventsOverwritten, kChunkSize);
    return;
  }
  if (max_chunks_ != 0 && chunks_.size() >= max_chunks_) {
    if (scratch_.data() == nullptr) scratch_ = Chunk::map();
    dropping_ = true;
    active_ = scratch_.data();
    pos_ = 0;
    // One warning per thread (a buffer belongs to exactly one), never
    // repeated on scratch wraps — the exact count lands in RUNSTATS.
    telemetry::log_warn(
        "buffer", "thread event buffer full at " + std::to_string(size()) +
                      " events; newer events are being dropped (raise "
                      "TEMPEST_MAX_EVENTS)");
    return;
  }
  chunks_.push_back(Chunk::map());
  active_ = chunks_.back().data();
  pos_ = 0;
  telemetry::count(Counter::kBufferFlushes);
}

void EventBuffer::set_limit(std::size_t max_events) {
  max_chunks_ =
      max_events == 0 ? 0 : (max_events + kChunkSize - 1) / kChunkSize;
}

void EventBuffer::set_ring(std::size_t max_events) {
  ring_chunks_ =
      max_events == 0
          ? 0
          : std::max<std::size_t>(2, (max_events + kChunkSize - 1) / kChunkSize);
}

void EventBuffer::slices(std::uint64_t min_tsc, std::vector<Slice>* out,
                         std::uint64_t* trimmed) {
  bool inside = min_tsc == 0;
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    const bool head = i + 1 == chunks_.size() && !dropping_;
    const std::size_t n = head ? pos_ : kChunkSize;
    const trace::FnEvent* begin = chunks_[i].data();
    const trace::FnEvent* first = begin;
    if (!inside) {
      if (n == 0 || begin[n - 1].tsc < min_tsc) {
        first = begin + n;  // whole chunk predates the window
      } else {
        // Boundary chunk: the buffer is time-ordered, so binary-search
        // the first event inside the window.
        first = std::lower_bound(
            begin, begin + n, min_tsc,
            [](const trace::FnEvent& e, std::uint64_t t) { return e.tsc < t; });
        inside = true;
      }
      *trimmed += static_cast<std::uint64_t>(first - begin);
    }
    out->push_back({first, begin + n, head ? nullptr : &chunks_[i]});
  }
}

void EventBuffer::finish_drain() {
  if (!dropping_ && !chunks_.empty()) parked_ = std::move(chunks_.back());
  chunks_.clear();
}

void EventBuffer::publish_telemetry() {
  using telemetry::Counter;
  const std::uint64_t stored = size();
  if (stored > published_stored_) {
    telemetry::count(Counter::kEventsRecorded, stored - published_stored_);
    published_stored_ = stored;
  }
  const std::uint64_t drops = dropped();
  if (drops > published_dropped_) {
    telemetry::count(Counter::kEventsDropped, drops - published_dropped_);
    published_dropped_ = drops;
  }
  if (overwritten_ > published_overwritten_) {
    telemetry::count(Counter::kEventsOverwritten,
                     overwritten_ - published_overwritten_);
    published_overwritten_ = overwritten_;
  }
}

void ThreadState::publish_rejections() {
  using telemetry::Counter;
  if (suppressed > published_suppressed) {
    telemetry::count(Counter::kEventsSuppressed, suppressed - published_suppressed);
    published_suppressed = suppressed;
  }
  if (throttled > published_throttled) {
    telemetry::count(Counter::kEventsThrottled, throttled - published_throttled);
    published_throttled = throttled;
  }
}

ThreadState* ThreadRegistry::current() {
  if (tls_slot.state == nullptr ||
      tls_slot.generation != g_generation.load(std::memory_order_acquire)) {
    tls_slot.state = register_thread();
    tls_slot.generation = g_generation.load(std::memory_order_acquire);
  }
  return tls_slot.state;
}

ThreadState* ThreadRegistry::register_thread() {
  common::MutexLock lock(&mu_);
  threads_.push_back(std::make_unique<ThreadState>());
  threads_.back()->thread_id = next_id_++;
  if (buffer_ring_ != 0) {
    threads_.back()->events.set_ring(buffer_ring_);
  } else {
    threads_.back()->events.set_limit(buffer_limit_);
  }
  telemetry::count(telemetry::Counter::kThreadsRegistered);
  telemetry::gauge_set(telemetry::Gauge::kActiveThreads,
                       static_cast<std::int64_t>(threads_.size()));
  return threads_.back().get();
}

void ThreadRegistry::bind_current(std::uint16_t node_id, std::uint16_t core,
                                  const VirtualTsc* clock) {
  ThreadState* ts = current();
  ts->node_id = node_id;
  ts->core = core;
  ts->clock = clock;
}

void ThreadRegistry::set_buffer_limit(std::size_t max_events_per_thread) {
  common::MutexLock lock(&mu_);
  buffer_limit_ = max_events_per_thread;
}

void ThreadRegistry::set_buffer_ring(std::size_t ring_events_per_thread) {
  common::MutexLock lock(&mu_);
  buffer_ring_ = ring_events_per_thread;
}

void ThreadRegistry::collect_into(trace::Trace* trace, std::uint64_t ring_ticks,
                                  DrainTotals* totals, bool drain) {
  std::vector<EventBuffer::Slice> slices;
  for (const auto& ts : threads_) {
    if (drain) {
      // Exact telemetry now that the thread is quiesced: the partial
      // last chunk, scratch-resident drops, and the suppressed /
      // throttled remainders below the block-publication granularity
      // all flush to the counters.
      ts->events.publish_telemetry();
      ts->publish_rejections();
    }
    // TEMPEST_RING_SECONDS: trim to each thread's own clock domain —
    // "now minus the window" translated the same way its events were.
    std::uint64_t min_tsc = 0;
    if (ring_ticks != 0) {
      const std::uint64_t now = ts->now();
      min_tsc = now > ring_ticks ? now - ring_ticks : 0;
    }
    std::uint64_t trimmed = 0;
    const std::size_t first = slices.size();
    ts->events.slices(min_tsc, &slices, &trimmed);
    std::size_t count = 0;
    for (std::size_t i = first; i < slices.size(); ++i) {
      count += static_cast<std::size_t>(slices[i].end - slices[i].begin);
    }
    trace->threads.push_back({ts->thread_id, ts->node_id, ts->core});
    if (totals != nullptr) {
      totals->retained += count;
      totals->dropped += ts->events.dropped();
      totals->overwritten += ts->events.overwritten() + trimmed;
      totals->admitted += ts->admitted;
      totals->suppressed += ts->suppressed;
      totals->throttled += ts->throttled;
    }
  }
  merge_slices(slices, /*release=*/drain, &trace->fn_events);
  if (drain) {
    for (const auto& ts : threads_) ts->events.finish_drain();
  }
}

void ThreadRegistry::drain_into(trace::Trace* trace, std::uint64_t ring_ticks,
                                DrainTotals* totals) {
  common::MutexLock lock(&mu_);
  collect_into(trace, ring_ticks, totals, /*drain=*/true);
}

void ThreadRegistry::snapshot_into(trace::Trace* trace,
                                   std::uint64_t ring_ticks,
                                   DrainTotals* totals) {
  common::MutexLock lock(&mu_);
  collect_into(trace, ring_ticks, totals, /*drain=*/false);
}

std::size_t ThreadRegistry::total_events() {
  common::MutexLock lock(&mu_);
  std::size_t total = 0;
  for (const auto& ts : threads_) total += ts->events.size();
  return total;
}

void ThreadRegistry::reset() {
  common::MutexLock lock(&mu_);
  // Retire rather than destroy: a thread that fetched its state before
  // this bump may still be appending to it. The state stays alive (after
  // a drain it holds only its write-head chunk) and the writer
  // re-registers on its next current() call.
  for (auto& ts : threads_) retired_.push_back(std::move(ts));
  threads_.clear();
  next_id_ = 0;
  telemetry::gauge_set(telemetry::Gauge::kActiveThreads, 0);
  g_generation.fetch_add(1, std::memory_order_acq_rel);
}

}  // namespace tempest::core
