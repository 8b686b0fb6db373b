#include "pipeline/rank_fanin.hpp"

#include <utility>

#include "pipeline/source.hpp"
#include "trace/align.hpp"

namespace tempest::pipeline {

Result<RankFanIn> RankFanIn::open(const std::vector<std::string>& paths,
                                  BatchOptions options, bool align) {
  if (paths.empty()) {
    return Result<RankFanIn>::error("rank fan-in needs at least one trace file");
  }
  RankFanIn fan;
  fan.options_ = options;
  fan.ranks_.reserve(paths.size());
  for (const std::string& path : paths) {
    auto opened = ChunkedTraceSource::open(path, options);
    if (!opened.is_ok()) return Result<RankFanIn>::error(opened.message());
    auto source = std::make_unique<ChunkedTraceSource>(std::move(opened).value());
    const std::vector<trace::ClockSync> syncs = source->clock_syncs_ahead().value();
    fan.syncs_.insert(fan.syncs_.end(), syncs.begin(), syncs.end());
    fan.meta_.append(source->meta());
    fan.ranks_.emplace_back().source = std::move(source);
  }
  if (align) fan.align_.emplace(trace::fit_clocks(fan.syncs_));
  return fan;
}

Status RankFanIn::refill(Rank* rank) {
  EventBatch& batch = rank->batch;
  while (!rank->done && rank->sample_pos == batch.temp_samples.size() &&
         rank->event_pos == batch.fn_events.size()) {
    batch.clear();
    rank->sample_pos = rank->event_pos = 0;
    Status read = rank->source->next(&batch, &rank->done);
    batch.end_of_stream = rank->done;
    const TraceMeta& meta = rank->source->meta();
    if (read && align_) read = align_->process(meta, &batch);
    if (read) read = rank->order.process(meta, &batch);
    if (!read) return read;
  }
  return Status::ok();
}

Status RankFanIn::next(EventBatch* out, bool* done) {
  // Moves records of one kind into `into`, lowest timestamp first, until
  // it is full or no rank holds one (*none then). Scanning the ranks in
  // path order with a strict < keeps ties on the lowest index.
  const auto merge = [this](auto kind, auto pos, auto* into, bool* none) {
    *none = false;
    while (into->size() < options_.batch_records) {
      Rank* best = nullptr;
      for (Rank& rank : ranks_) {
        const Status filled = refill(&rank);
        if (!filled) return filled;
        const auto& records = rank.batch.*kind;
        if (rank.*pos == records.size()) continue;
        if (best == nullptr ||
            records[rank.*pos].tsc < (best->batch.*kind)[best->*pos].tsc) {
          best = &rank;
        }
      }
      if (best == nullptr) {
        *none = true;
        break;
      }
      into->push_back((best->batch.*kind)[(best->*pos)++]);
    }
    return Status::ok();
  };
  // Every rank's samples precede its events: samples merge until no
  // rank holds one, then events until every rank is done.
  bool no_samples = false;
  *done = false;
  Status merged =
      merge(&EventBatch::temp_samples, &Rank::sample_pos, &out->temp_samples, &no_samples);
  if (merged && out->temp_samples.empty()) {
    merged = merge(&EventBatch::fn_events, &Rank::event_pos, &out->fn_events, done);
  }
  return merged;
}

}  // namespace tempest::pipeline
