#include "pipeline/prefetch.hpp"

#include <utility>

namespace tempest::pipeline {

PrefetchSource::PrefetchSource(Source* inner, std::size_t depth)
    : inner_(inner), depth_(depth == 0 ? 1 : depth) {
  producer_ = std::thread([this] { producer_loop(); });
}

PrefetchSource::~PrefetchSource() {
  {
    common::MutexLock lock(&mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (producer_.joinable()) producer_.join();
}

void PrefetchSource::producer_loop() {
  for (;;) {
    EventBatch batch;
    {
      common::MutexLock lock(&mu_);
      if (!spare_.empty()) {
        batch = std::move(spare_.back());
        spare_.pop_back();
      }
    }
    batch.clear();
    bool done = false;
    Status status = inner_->next(&batch, &done);
    const bool terminal = done || !status;
    {
      common::MutexLock lock(&mu_);
      while (queue_.size() >= depth_ && !stop_) cv_.wait(mu_);
      if (stop_) return;
      queue_.push_back(Item{std::move(batch), done, std::move(status)});
    }
    cv_.notify_all();
    if (terminal) return;
  }
}

Status PrefetchSource::next(EventBatch* out, bool* done) {
  Item item;
  {
    common::MutexLock lock(&mu_);
    while (queue_.empty()) cv_.wait(mu_);
    item = std::move(queue_.front());
    queue_.pop_front();
  }
  cv_.notify_all();
  std::swap(*out, item.batch);
  {
    // Recycle the caller's previous buffers into the producer's pool.
    common::MutexLock lock(&mu_);
    if (spare_.size() < depth_) spare_.push_back(std::move(item.batch));
  }
  *done = item.done;
  return item.status;
}

}  // namespace tempest::pipeline
