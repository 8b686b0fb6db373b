// The recorder's drain is the one place events are put in time order:
// ThreadRegistry merges every thread's chunks straight into the trace.
// Property test: on random buffers, drain_into and snapshot_into must
// both produce exactly the seed's stable sort of the registration-order
// concatenation (tests/reference), with exact DrainTotals. Buffers are
// filled from concurrently registering threads (TSan runs this file via
// the `concurrency` label).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/tsc.hpp"
#include "core/thread_buffer.hpp"
#include "reference/reference.hpp"
#include "trace/trace.hpp"

namespace {

using tempest::core::DrainTotals;
using tempest::core::EventBuffer;
using tempest::core::ThreadRegistry;
using tempest::core::ThreadState;
using tempest::trace::FnEvent;
using tempest::trace::FnEventKind;
using tempest::trace::Trace;

constexpr std::size_t kChunk = EventBuffer::kChunkSize;

enum class Posture { kUnbounded, kRing, kCapped };


/// A thread's events: ticks advance by 0..2 (ties within and across
/// threads), and with `step_back` the clock sometimes steps back, as
/// after a rebind to a node clock that runs behind — sometimes right at
/// a chunk boundary. Each event's addr is unique, so order is exact.
std::vector<FnEvent> make_events(std::mt19937_64& rng, std::size_t slot,
                                 std::size_t n, bool step_back) {
  std::vector<FnEvent> events;
  events.reserve(n);
  std::uint64_t tsc = 1000 + rng() % 16;
  for (std::size_t i = 0; i < n; ++i) {
    const bool boundary = i % kChunk == 0 && i > 0 && rng() % 2 == 0;
    if (step_back && (boundary || rng() % 4000 == 0)) {
      tsc -= std::min<std::uint64_t>(tsc, 1 + rng() % 3000);
    }
    tsc += rng() % 3;
    events.push_back({tsc, (static_cast<std::uint64_t>(slot) << 32) | i,
                      0, 0, i % 2 == 0 ? FnEventKind::kEnter : FnEventKind::kExit});
  }
  return events;
}

void expect_same_events(const std::vector<FnEvent>& got,
                        const std::vector<FnEvent>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].tsc, want[i].tsc) << what << " event " << i;
    ASSERT_EQ(got[i].addr, want[i].addr) << what << " event " << i;
    ASSERT_EQ(got[i].thread_id, want[i].thread_id) << what << " event " << i;
    ASSERT_EQ(got[i].node_id, want[i].node_id) << what << " event " << i;
    ASSERT_EQ(got[i].kind, want[i].kind) << what << " event " << i;
  }
}

void expect_same_totals(const DrainTotals& got, const DrainTotals& want,
                        const std::string& what) {
  EXPECT_EQ(got.retained, want.retained) << what;
  EXPECT_EQ(got.dropped, want.dropped) << what;
  EXPECT_EQ(got.overwritten, want.overwritten) << what;
  EXPECT_EQ(got.admitted, want.admitted) << what;
  EXPECT_EQ(got.suppressed, want.suppressed) << what;
  EXPECT_EQ(got.throttled, want.throttled) << what;
  EXPECT_EQ(got.admitted, got.retained + got.dropped + got.overwritten) << what;
}

TEST(ThreadRegistryDrain, MergeEqualsSeedStableSortOfConcatenation) {
  // A stopped clock, so the ring trim's "now" is known exactly: with
  // zero rate the translation is the offset alone.
  constexpr std::uint64_t kNow = 1'000'000;
  const tempest::VirtualTsc frozen(static_cast<std::int64_t>(kNow), -1e6);
  ASSERT_EQ(frozen.now(), kNow);

  std::mt19937_64 rng(0x5eed'd4a1ULL);
  for (int trial = 0; trial < 40; ++trial) {
    const auto posture = static_cast<Posture>(trial % 3);
    const std::size_t threads = 1 + rng() % 8;
    const std::size_t cap_events = 1 + rng() % (2 * kChunk);
    const std::size_t ring_events = 1 + rng() % (3 * kChunk);
    const bool trim = posture == Posture::kRing && rng() % 2 == 0;
    const std::uint64_t ring_ticks = trim ? 1 + rng() % 40'000 : 0;
    const std::string what = "trial " + std::to_string(trial) + " (" +
                             std::to_string(threads) + " threads, posture " +
                             std::to_string(trial % 3) + ")";
    SCOPED_TRACE(what);

    std::vector<std::vector<FnEvent>> pushed(threads);
    for (std::size_t s = 0; s < threads; ++s) {
      // Mostly short buffers, every so often a multi-chunk or an empty one.
      const std::size_t pick = rng() % 6;
      const std::size_t n = pick == 0   ? 0
                            : pick <= 2 ? kChunk + rng() % (2 * kChunk)
                                        : rng() % 3000;
      // The trim needs time-ordered buffers (its binary search assumes
      // them), and timestamps ending just below the frozen "now" so the
      // window cuts inside them.
      pushed[s] = make_events(rng, s, n, !trim);
      if (trim && n > 0) {
        const std::uint64_t shift = kNow - 1 - rng() % 16 - pushed[s].back().tsc;
        for (FnEvent& e : pushed[s]) e.tsc += shift;
      }
    }

    ThreadRegistry registry;
    if (posture == Posture::kRing) registry.set_buffer_ring(ring_events);
    if (posture == Posture::kCapped) registry.set_buffer_limit(cap_events);
    // Register and record concurrently; ids follow registration order.
    std::vector<ThreadState*> states(threads);
    std::vector<std::thread> workers;
    for (std::size_t s = 0; s < threads; ++s) {
      workers.emplace_back([&, s] {
        registry.bind_current(static_cast<std::uint16_t>(s % 3), 0,
                              trim ? &frozen : nullptr);
        ThreadState* ts = registry.current();
        states[s] = ts;
        for (FnEvent e : pushed[s]) {
          e.thread_id = ts->thread_id;
          e.node_id = ts->node_id;
          ts->events.push(e);
          ++ts->admitted;
        }
      });
    }
    for (auto& w : workers) w.join();

    // Expected retention, from the postures' documented rules: the cap
    // keeps the head (whole chunks), the ring the newest chunks, and the
    // trim drops the ring's events stamped before now - ring_ticks.
    std::vector<std::size_t> slot_of(threads);
    for (std::size_t s = 0; s < threads; ++s) slot_of[states[s]->thread_id] = s;
    Trace want;
    DrainTotals want_totals;
    for (std::size_t id = 0; id < threads; ++id) {
      std::vector<FnEvent>& events = pushed[slot_of[id]];
      for (FnEvent& e : events) {
        e.thread_id = static_cast<std::uint32_t>(id);
        e.node_id = static_cast<std::uint16_t>(slot_of[id] % 3);
      }
      std::size_t first = 0, last = events.size();
      if (posture == Posture::kCapped) {
        last = std::min(last, (cap_events + kChunk - 1) / kChunk * kChunk);
      } else if (posture == Posture::kRing) {
        const std::size_t ring_chunks =
            std::max<std::size_t>(2, (ring_events + kChunk - 1) / kChunk);
        const std::size_t started = (events.size() + kChunk - 1) / kChunk;
        if (started > ring_chunks) first = (started - ring_chunks) * kChunk;
        const std::uint64_t min_tsc = kNow - ring_ticks;
        while (trim && first < last && events[first].tsc < min_tsc) ++first;
      }
      want.fn_events.insert(want.fn_events.end(),
                            events.begin() + static_cast<std::ptrdiff_t>(first),
                            events.begin() + static_cast<std::ptrdiff_t>(last));
      want_totals.retained += last - first;
      want_totals.dropped += events.size() - last;
      want_totals.overwritten += first;
      want_totals.admitted += events.size();
    }
    tempest::parser::reference::sort_by_time_seed(&want);

    // The snapshot copies and releases nothing, so the drain that
    // follows sees the same buffers.
    Trace snap;
    DrainTotals snap_totals;
    registry.snapshot_into(&snap, ring_ticks, &snap_totals);
    expect_same_events(snap.fn_events, want.fn_events, "snapshot_into");
    expect_same_totals(snap_totals, want_totals, "snapshot_into");

    Trace drained;
    DrainTotals drain_totals;
    registry.drain_into(&drained, ring_ticks, &drain_totals);
    expect_same_events(drained.fn_events, want.fn_events, "drain_into");
    expect_same_totals(drain_totals, want_totals, "drain_into");
    ASSERT_EQ(drained.threads.size(), threads);
    for (std::size_t id = 0; id < threads; ++id) {
      EXPECT_EQ(drained.threads[id].thread_id, id);
      EXPECT_EQ(drained.threads[id].node_id, slot_of[id] % 3);
    }
    // Drained means taken: the buffers hold nothing afterwards.
    EXPECT_EQ(registry.total_events(), 0u);
    // A hook that raced the drain still writes into its write head, so
    // that chunk must still be mapped (the workers are joined; this
    // thread stands in for a late one).
    for (ThreadState* ts : states) {
      ts->events.push({kNow, 1, ts->thread_id, 0, FnEventKind::kExit});
    }
  }
}

}  // namespace
