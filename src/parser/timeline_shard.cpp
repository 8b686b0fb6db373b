#include "parser/timeline_shard.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <thread>
#include <utility>

#include "common/thread_annotations.hpp"

namespace tempest::parser {
namespace {

/// Queued work items a shard may hold before the producer blocks;
/// bounds fold memory at shards * depth * batch regardless of how far
/// the decode side runs ahead.
constexpr std::size_t kMaxQueuedBuffers = 4;

/// One hand-off to a shard: a slice of its threads' events, or a copy
/// of the whole sample batch.
struct Work {
  std::vector<trace::FnEvent> events;
  std::vector<trace::TempSample> samples;
};

}  // namespace

TimelineMap merge_timeline_maps(std::vector<TimelineMap>* parts) {
  TimelineMap out;
  for (TimelineMap& part : *parts) {
    if (out.empty()) {
      out = std::move(part);
      continue;
    }
    for (auto& [key, fa] : part) {
      auto [it, inserted] = out.try_emplace(key, std::move(fa));
      if (inserted) continue;
      FunctionActivity& dst = it->second;
      dst.total_ticks += fa.total_ticks;
      dst.calls += fa.calls;
      dst.activations += fa.activations;
      dst.ticks_sq += fa.ticks_sq;
      dst.first_begin = std::min(dst.first_begin, fa.first_begin);
      dst.last_end = std::max(dst.last_end, fa.last_end);
      dst.samples.insert(dst.samples.end(), fa.samples.begin(), fa.samples.end());
      merge_sample_ranges(&dst.samples);
      dst.spans.insert(dst.spans.end(), fa.spans.begin(), fa.spans.end());
      merge_intervals(&dst.spans);
    }
  }
  parts->clear();
  // The serial accumulator drops functions with no activation; shards
  // keep them (keep_empty) so sibling shards' activations can rescue
  // their call counts — apply the drop to the combined map instead.
  std::erase_if(out, [](const auto& entry) { return entry.second.activations == 0; });
  return out;
}

struct ShardedTimelineAccumulator::Impl {
  struct Shard {
    Shard(const std::vector<trace::ThreadInfo>& threads, std::size_t hint,
          SpanFilter keep_spans)
        : acc(threads, hint, std::move(keep_spans)) {}

    TimelineAccumulator acc;  ///< touched only by the shard's worker
    TimelineMap result;
    TimelineDiagnostics diag;

    common::Mutex mu;
    std::condition_variable_any cv;
    std::deque<Work> queue GUARDED_BY(mu);
    std::vector<std::vector<trace::FnEvent>> spare GUARDED_BY(mu);
    bool closing GUARDED_BY(mu) = false;
    std::uint64_t end_tsc = 0;  ///< written before closing is published

    std::thread worker;
  };

  Impl(const std::vector<trace::ThreadInfo>& threads, std::size_t hint,
       unsigned n_shards, const SpanFilter& keep_spans) {
    shards.reserve(n_shards);
    const std::size_t shard_hint = hint / n_shards + 16;
    for (unsigned i = 0; i < n_shards; ++i) {
      shards.push_back(std::make_unique<Shard>(threads, shard_hint, keep_spans));
    }
    for (auto& s : shards) {
      Shard* shard = s.get();
      shard->worker = std::thread([shard] { run(shard); });
    }
    scratch.resize(n_shards);
  }

  static void run(Shard* s) {
    for (;;) {
      Work work;
      bool close = false;
      {
        common::MutexLock lock(&s->mu);
        while (s->queue.empty() && !s->closing) s->cv.wait(s->mu);
        if (!s->queue.empty()) {
          work = std::move(s->queue.front());
          s->queue.pop_front();
        } else {
          close = true;
        }
      }
      if (close) break;
      s->acc.add_samples(work.samples.data(), work.samples.size());
      s->acc.add_events(work.events.data(), work.events.size());
      work.events.clear();
      {
        common::MutexLock lock(&s->mu);
        if (s->spare.size() < kMaxQueuedBuffers && work.events.capacity() > 0) {
          s->spare.push_back(std::move(work.events));
        }
      }
      s->cv.notify_all();  // producer may be waiting on queue space
    }
    // keep_empty: the combined-map merge owns the drop-empty rule.
    s->result = s->acc.finish(s->end_tsc, &s->diag, /*keep_empty=*/true);
  }

  /// Queue `work` on `s`, blocking while its queue is full; returns a
  /// recycled event buffer when the worker has one to spare.
  static std::vector<trace::FnEvent> enqueue(Shard* s, Work work) {
    std::vector<trace::FnEvent> refill;
    {
      common::MutexLock lock(&s->mu);
      while (s->queue.size() >= kMaxQueuedBuffers) s->cv.wait(s->mu);
      s->queue.push_back(std::move(work));
      if (!s->spare.empty()) {
        refill = std::move(s->spare.back());
        s->spare.pop_back();
      }
    }
    s->cv.notify_all();
    return refill;
  }

  void close_and_join(std::uint64_t end_tsc) {
    for (auto& s : shards) {
      common::MutexLock lock(&s->mu);
      s->end_tsc = end_tsc;
      s->closing = true;
      s->cv.notify_all();
    }
    for (auto& s : shards) {
      if (s->worker.joinable()) s->worker.join();
    }
  }

  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<std::vector<trace::FnEvent>> scratch;  ///< per-shard split
  bool joined = false;
};

ShardedTimelineAccumulator::ShardedTimelineAccumulator(
    const std::vector<trace::ThreadInfo>& threads, std::size_t hint,
    unsigned shards, SpanFilter keep_spans) {
  if (shards > 1) {
    impl_ = std::make_unique<Impl>(threads, hint, shards, keep_spans);
  } else {
    serial_.emplace(threads, hint, std::move(keep_spans));
  }
}

ShardedTimelineAccumulator::~ShardedTimelineAccumulator() {
  if (impl_ && !impl_->joined) impl_->close_and_join(0);
}

void ShardedTimelineAccumulator::add_samples(const trace::TempSample* samples,
                                             std::size_t n) {
  if (!impl_) {
    serial_->add_samples(samples, n);
    return;
  }
  if (n == 0) return;
  for (auto& s : impl_->shards) {
    Work work;
    work.samples.assign(samples, samples + n);
    Impl::enqueue(s.get(), std::move(work));
  }
}

void ShardedTimelineAccumulator::add_events(const trace::FnEvent* events,
                                            std::size_t n) {
  if (!impl_) {
    serial_->add_events(events, n);
    return;
  }
  Impl& im = *impl_;
  const std::size_t n_shards = im.shards.size();
  // Stable partition: each thread's events keep their relative order,
  // which is the only order TimelineAccumulator relies on.
  for (std::size_t i = 0; i < n; ++i) {
    im.scratch[events[i].thread_id % n_shards].push_back(events[i]);
  }
  for (std::size_t si = 0; si < n_shards; ++si) {
    std::vector<trace::FnEvent>& part = im.scratch[si];
    if (part.empty()) continue;
    Work work;
    work.events = std::move(part);
    part = Impl::enqueue(im.shards[si].get(), std::move(work));
  }
}

TimelineMap ShardedTimelineAccumulator::finish(std::uint64_t end_tsc,
                                               TimelineDiagnostics* diag) {
  if (!impl_) return serial_->finish(end_tsc, diag);
  Impl& im = *impl_;
  im.close_and_join(end_tsc);
  im.joined = true;

  TimelineDiagnostics total;
  std::vector<TimelineMap> parts;
  parts.reserve(im.shards.size());
  for (auto& s : im.shards) {
    total.unmatched_exits += s->diag.unmatched_exits;
    total.force_closed += s->diag.force_closed;
    parts.push_back(std::move(s->result));
  }
  if (diag != nullptr) *diag = total;
  return merge_timeline_maps(&parts);
}

}  // namespace tempest::parser
