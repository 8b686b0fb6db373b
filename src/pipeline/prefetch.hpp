// Read-ahead source decorator: overlaps trace I/O + decode with the
// downstream fold.
//
// The streaming pipeline is a strict loop — read a batch, fold a batch —
// so even with the fold sharded, the reader's I/O and record decode
// serialise with analysis. PrefetchSource moves the wrapped source onto
// a producer thread that stays a bounded number of batches ahead;
// next() pops batches in production order, so consumers observe exactly
// the sequence the inner source would have produced (the ordering
// contract in stage.hpp is preserved by construction). Batch buffers
// recycle through a spare list, keeping steady-state allocation at zero.
//
// The wrapped source must not be touched by anyone else while the
// decorator exists. meta() reads the inner source's metadata while the
// producer runs: it is complete before the first batch and never
// written afterwards (stage.hpp), so no copy or lock is needed.
#pragma once

#include <condition_variable>
#include <deque>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"
#include "pipeline/stage.hpp"

namespace tempest::pipeline {

class PrefetchSource : public Source {
 public:
  /// `inner` must outlive the decorator. `depth` bounds the batches in
  /// flight (producer blocks when full).
  explicit PrefetchSource(Source* inner, std::size_t depth = 4);
  ~PrefetchSource() override;

  PrefetchSource(const PrefetchSource&) = delete;
  PrefetchSource& operator=(const PrefetchSource&) = delete;

  const TraceMeta& meta() const override { return inner_->meta(); }
  Status next(EventBatch* out, bool* done) override;

 private:
  struct Item {
    EventBatch batch;
    bool done = false;
    Status status = Status::ok();
  };

  void producer_loop();

  Source* inner_;
  std::size_t depth_;

  common::Mutex mu_;
  std::condition_variable_any cv_;
  std::deque<Item> queue_ GUARDED_BY(mu_);
  std::vector<EventBatch> spare_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;

  std::thread producer_;
};

}  // namespace tempest::pipeline
