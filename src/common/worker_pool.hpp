// Persistent worker pool for blocking parallel-for over index ranges.
//
// The trace reader's bulk record decode (TraceStreamReader::
// set_decode_pool) fans every chunk out in this fork/join shape without
// paying a thread spawn per chunk, so the pool keeps its threads parked
// on a condition variable between jobs. The timeline shards run their
// own threads, not the pool. for_slices is deliberately minimal:
// contiguous [begin, end) slices handed out through an atomic cursor,
// the calling thread participates, and the call returns only when every
// slice has run — no futures, no task graph.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"

namespace tempest {

class WorkerPool {
 public:
  /// Spawns `workers - 1` threads (the caller is the remaining worker);
  /// `workers <= 1` spawns none and for_slices runs inline.
  explicit WorkerPool(unsigned workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Total workers including the calling thread.
  unsigned size() const { return static_cast<unsigned>(threads_.size()) + 1; }

  /// Run fn(begin, end) over a partition of [0, n) and return when all
  /// slices are done. Slices hold at least `min_per_slice` indices (the
  /// final one may be short), so tiny inputs run inline on the caller.
  /// Safe to call from multiple threads; calls serialise.
  void for_slices(std::size_t n, std::size_t min_per_slice,
                  const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  void worker_loop();
  void drain_slices(const std::function<void(std::size_t, std::size_t)>& fn,
                    std::size_t n, std::size_t slice);

  std::vector<std::thread> threads_;
  common::Mutex submit_mu_;  ///< serialises concurrent for_slices callers

  common::Mutex mu_;
  std::condition_variable_any work_cv_;
  std::condition_variable_any done_cv_;
  std::uint64_t generation_ GUARDED_BY(mu_) = 0;
  unsigned active_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;

  // Current job; written under mu_ before the generation bump publishes
  // it, read by workers after they observe the new generation.
  const std::function<void(std::size_t, std::size_t)>* job_ GUARDED_BY(mu_) =
      nullptr;
  std::size_t job_n_ GUARDED_BY(mu_) = 0;
  std::size_t job_slice_ GUARDED_BY(mu_) = 0;
  std::atomic<std::size_t> cursor_{0};
};

}  // namespace tempest
