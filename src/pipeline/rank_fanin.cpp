#include "pipeline/rank_fanin.hpp"

#include <utility>

namespace tempest::pipeline {

Result<RankFanIn> RankFanIn::open(const std::vector<std::string>& paths,
                                  BatchOptions options) {
  if (paths.empty()) {
    return Result<RankFanIn>::error("rank fan-in needs at least one trace file");
  }
  RankFanIn fan;
  fan.options_ = options;
  fan.ranks_.reserve(paths.size());

  // Pass 1: open every rank, combine metadata in path order, and read
  // the sample and sync sections ahead (seek-ahead, position restored)
  // in the same order — fit_clocks then sees exactly the sync stream of
  // the concatenated trace.
  std::vector<trace::ClockSync>& all_syncs = fan.syncs_;
  for (const std::string& path : paths) {
    Rank rank;
    rank.path = path;
    rank.in = std::make_unique<std::ifstream>(path, std::ios::binary);
    if (!*rank.in) {
      return Result<RankFanIn>::error("cannot open trace file: " + path);
    }
    auto opened = trace::TraceStreamReader::open(*rank.in);
    if (!opened.is_ok()) {
      return Result<RankFanIn>::error(path + ": " + opened.message());
    }
    rank.reader.emplace(std::move(opened).value());
    auto ahead = rank.reader->read_ahead();
    if (!ahead.is_ok()) {
      return Result<RankFanIn>::error(path + ": " + ahead.message());
    }
    const auto& rank_syncs = ahead.value().clock_syncs;
    all_syncs.insert(all_syncs.end(), rank_syncs.begin(), rank_syncs.end());
    rank.samples = std::move(ahead.value().temp_samples);
    fan.meta_.append(rank.reader->header());
    fan.ranks_.push_back(std::move(rank));
  }
  fan.clocks_ = trace::ClockMap(trace::fit_clocks(all_syncs));

  // Align the samples now, so the merge compares global timestamps, and
  // hold each rank's stream to monotone order through the fit.
  for (Rank& rank : fan.ranks_) {
    std::uint64_t last = 0;
    for (auto& s : rank.samples) {
      s.tsc = fan.clocks_.to_global(s.node_id, s.tsc);
      if (s.tsc < last) {
        return Result<RankFanIn>::error(
            rank.path +
            ": temperature samples fall out of time order after clock "
            "alignment; a rank file holding several nodes can be analysed "
            "on its own, which restores their order");
      }
      last = s.tsc;
    }
  }
  return fan;
}

Status RankFanIn::fill_events(Rank* rank) {
  if (rank->event_pos < rank->events.size() || rank->events_done) {
    return Status::ok();
  }
  rank->events.clear();
  rank->event_pos = 0;
  std::size_t appended = 0;
  const Status read = rank->reader->next_fn_events(
      &rank->events, options_.batch_records, &appended);
  if (!read) return Status::error(rank->path + ": " + read.message());
  if (appended == 0) {
    rank->events_done = true;
    return Status::ok();
  }
  // Align on refill so the merge compares global timestamps directly,
  // and enforce that this rank's stream stays monotone through the fit.
  for (auto& e : rank->events) {
    e.tsc = clocks_.to_global(e.node_id, e.tsc);
    if (e.tsc < rank->last_event_tsc) {
      return Status::error(
          rank->path +
          ": fn events fall out of time order after clock alignment; a "
          "rank file holding several nodes can be analysed on its own, "
          "which restores their order");
    }
    rank->last_event_tsc = e.tsc;
  }
  return Status::ok();
}

Status RankFanIn::next(EventBatch* out, bool* done) {
  *done = false;

  // Phase 0: merge the read-ahead temperature samples. Scanning ranks in
  // path order with a strict < comparison keeps ties on the lowest
  // index — the merge is a stable_sort of the concatenation.
  while (phase_ == 0 && out->temp_samples.size() < options_.batch_records) {
    Rank* best = nullptr;
    for (Rank& rank : ranks_) {
      if (rank.sample_pos >= rank.samples.size()) continue;
      if (best == nullptr || rank.samples[rank.sample_pos].tsc <
                                 best->samples[best->sample_pos].tsc) {
        best = &rank;
      }
    }
    if (best == nullptr) {
      for (Rank& rank : ranks_) std::vector<trace::TempSample>().swap(rank.samples);
      phase_ = 1;
      break;
    }
    out->temp_samples.push_back(best->samples[best->sample_pos++]);
  }
  if (!out->temp_samples.empty()) return Status::ok();

  // Phase 1: merge fn events the same way, refilling per rank.
  while (phase_ == 1 && out->fn_events.size() < options_.batch_records) {
    Rank* best = nullptr;
    for (Rank& rank : ranks_) {
      const Status filled = fill_events(&rank);
      if (!filled) return filled;
      if (rank.event_pos >= rank.events.size()) continue;
      if (best == nullptr ||
          rank.events[rank.event_pos].tsc < best->events[best->event_pos].tsc) {
        best = &rank;
      }
    }
    if (best == nullptr) {
      phase_ = 2;
      break;
    }
    out->fn_events.push_back(best->events[best->event_pos++]);
  }
  if (!out->fn_events.empty()) return Status::ok();

  if (phase_ == 2) {
    // Step over each rank's sample and sync sections (already consumed
    // by the open()-time pre-pass) a batch at a time so the readers
    // reach done(), then hold every rank to the single-payload rule.
    std::vector<trace::TempSample> samples;
    std::vector<trace::ClockSync> syncs;
    for (Rank& rank : ranks_) {
      while (!rank.reader->done()) {
        samples.clear();
        syncs.clear();
        std::size_t appended = 0;
        Status read = rank.reader->next_temp_samples(
            &samples, options_.batch_records, &appended);
        if (read && appended == 0) {
          read = rank.reader->next_clock_syncs(&syncs, options_.batch_records,
                                               &appended);
        }
        if (!read) return Status::error(rank.path + ": " + read.message());
      }
      const Status eof = rank.reader->expect_eof();
      if (!eof) return Status::error(rank.path + ": " + eof.message());
    }
    *done = true;
  }
  return Status::ok();
}

}  // namespace tempest::pipeline
