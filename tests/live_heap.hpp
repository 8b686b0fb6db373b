// Live heap bytes and allocations, counted while a peak_heap run is
// under way, so a memory bound is checked on what the code under test
// allocates rather than on process RSS. A tracked allocation that would
// lift the live count past kLiveHeapCap fails instead of exhausting the
// machine.
//
// Include in exactly one translation unit of a test binary: it replaces
// the scalar operator new/delete family. The array forms stay paired
// with each other, as do the aligned ones.
#pragma once

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace live_heap {

inline std::atomic<bool> g_track{false};
inline std::atomic<std::int64_t> g_live{0};
inline std::atomic<std::int64_t> g_peak{0};
inline std::atomic<std::int64_t> g_allocations{0};
inline constexpr std::int64_t kLiveHeapCap = std::int64_t{512} << 20;

/// malloc that counts the block while tracking; nullptr on failure or
/// when the block would pass kLiveHeapCap.
inline void* counted_malloc(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr || !g_track.load(std::memory_order_relaxed)) return p;
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto size = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live = g_live.fetch_add(size) + size;
  if (live > kLiveHeapCap) {
    g_live.fetch_sub(size);
    std::free(p);
    return nullptr;
  }
  std::int64_t peak = g_peak.load();
  while (live > peak && !g_peak.compare_exchange_weak(peak, live)) {
  }
  return p;
}

inline void counted_free(void* p) {
  if (p != nullptr && g_track.load(std::memory_order_relaxed)) {
    g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)));
  }
  std::free(p);
}

/// Peak live heap bytes, above the level at the start, while `run` runs.
template <typename F>
std::int64_t peak_heap(F&& run) {
  g_live = 0;
  g_peak = 0;
  g_allocations = 0;
  g_track = true;
  try {
    run();
  } catch (...) {
    g_track = false;
    throw;
  }
  g_track = false;
  return g_peak;
}

/// Heap allocations made while `run` runs.
template <typename F>
std::int64_t allocations(F&& run) {
  peak_heap(run);
  return g_allocations;
}

}  // namespace live_heap

void* operator new(std::size_t n) {
  void* p = live_heap::counted_malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return live_heap::counted_malloc(n);
}
void operator delete(void* p) noexcept { live_heap::counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { live_heap::counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  live_heap::counted_free(p);
}
