#include "pipeline/source.hpp"

#include <algorithm>
#include <utility>

namespace tempest::pipeline {
namespace {

/// Copy the next slice of at most `cap` records of `from` into `out`;
/// false once `from` is exhausted.
template <typename Record>
bool take_slice(const std::vector<Record>& from, std::size_t* pos, std::size_t cap,
                std::vector<Record>* out) {
  if (*pos >= from.size()) return false;
  const std::size_t n = std::min(cap, from.size() - *pos);
  const auto first = from.begin() + static_cast<std::ptrdiff_t>(*pos);
  out->assign(first, first + static_cast<std::ptrdiff_t>(n));
  *pos += n;
  return true;
}

}  // namespace

Result<ChunkedTraceSource> ChunkedTraceSource::open(const std::string& path,
                                                    BatchOptions options) {
  ChunkedTraceSource source;
  source.path_ = path;
  source.options_ = options;
  source.in_ = std::make_unique<std::ifstream>(path, std::ios::binary);
  if (!*source.in_) {
    return Result<ChunkedTraceSource>::error("cannot open trace file: " + path);
  }
  auto opened = trace::TraceStreamReader::open(*source.in_);
  if (!opened.is_ok()) {
    return Result<ChunkedTraceSource>::error(path + ": " + opened.message());
  }
  source.reader_.emplace(std::move(opened).value());
  return source;
}

Status ChunkedTraceSource::read_ahead() {
  if (ahead_) return Status::ok();
  auto ahead = reader_->read_ahead();
  if (!ahead.is_ok()) return Status::error(path_ + ": " + ahead.message());
  ahead_.emplace(std::move(ahead).value());
  return Status::ok();
}

Status ChunkedTraceSource::next(EventBatch* out, bool* done) {
  *done = false;
  const Status ahead = read_ahead();
  if (!ahead) return ahead;

  // Samples first, from the pre-pass; released once all are out.
  std::vector<trace::TempSample>& samples = ahead_->temp_samples;
  if (take_slice(samples, &sample_pos_, options_.batch_records, &out->temp_samples)) {
    if (sample_pos_ == samples.size()) {
      std::vector<trace::TempSample>().swap(samples);
      sample_pos_ = 0;
    }
    return Status::ok();
  }

  // Then one slice of whichever file section the cursor is in; an
  // exhausted section falls through to the next so a call never returns
  // an empty batch mid-stream. The sample section, already emitted, is
  // stepped over a batch at a time.
  trace::TraceStreamReader& reader = *reader_;
  std::size_t appended = 0;
  Status read = reader.next_fn_events(&out->fn_events, options_.batch_records,
                                      &appended);
  if (read && appended == 0) {
    std::vector<trace::TempSample> emitted;
    do {
      emitted.clear();
      read = reader.next_temp_samples(&emitted, options_.batch_records, &appended);
    } while (read && appended > 0);
  }
  if (read && appended == 0) {
    read = reader.next_clock_syncs(&out->clock_syncs, options_.batch_records,
                                   &appended);
  }
  if (!read) return Status::error(path_ + ": " + read.message());
  if (reader.done()) {
    *done = true;
    // Mirror read_trace_file: a lone trace file has exactly one payload.
    const Status eof = reader.expect_eof();
    if (!eof) return Status::error(path_ + ": " + eof.message());
  }
  return Status::ok();
}

Result<std::map<std::uint16_t, trace::ClockFit>> ChunkedTraceSource::clock_fits() {
  auto syncs = clock_syncs_ahead();
  if (!syncs.is_ok()) {
    return Result<std::map<std::uint16_t, trace::ClockFit>>::error(
        syncs.message());
  }
  return trace::fit_clocks(syncs.value());
}

Result<std::vector<trace::ClockSync>> ChunkedTraceSource::clock_syncs_ahead() {
  const Status ahead = read_ahead();
  if (!ahead) return Result<std::vector<trace::ClockSync>>::error(ahead.message());
  return ahead_->clock_syncs;
}

Status MemoryTraceSource::next(EventBatch* out, bool* done) {
  const trace::Trace& t = *trace_;
  const std::size_t cap = options_.batch_records;
  (void)(take_slice(t.temp_samples, &sample_pos_, cap, &out->temp_samples) ||
         take_slice(t.fn_events, &event_pos_, cap, &out->fn_events) ||
         take_slice(t.clock_syncs, &sync_pos_, cap, &out->clock_syncs));
  *done = event_pos_ >= t.fn_events.size() &&
          sample_pos_ >= t.temp_samples.size() &&
          sync_pos_ >= t.clock_syncs.size();
  return Status::ok();
}

Status TraceInput::open(const std::vector<std::string>& paths, bool align,
                        unsigned threads, BatchOptions batch) {
  if (paths.size() != 1) {
    if (!align) {
      return Status::error(
          "--no-align is incompatible with multi-file fan-in "
          "(the merge orders ranks by aligned global time)");
    }
    auto opened = RankFanIn::open(paths, batch);
    if (!opened.is_ok()) return Status::error(opened.message());
    source_ = &fan_.emplace(std::move(opened).value());
    syncs_ = fan_->sync_records();
  } else {
    auto opened = ChunkedTraceSource::open(paths[0], batch);
    if (!opened.is_ok()) return Status::error(opened.message());
    source_ = &chunked_.emplace(std::move(opened).value());
    if (threads > 1) chunked_->set_decode_pool(&pool_.emplace(threads));
    if (align) {
      auto ahead = chunked_->clock_syncs_ahead();
      if (!ahead.is_ok()) return Status::error(ahead.message());
      syncs_ = std::move(ahead).value();
      align_.emplace(trace::fit_clocks(syncs_));
    }
  }
  if (threads > 1) source_ = &prefetch_.emplace(source_);
  if (align_) stages_.push_back(&*align_);
  stages_.push_back(&order_);
  return Status::ok();
}

void TraceInput::open(const trace::Trace& trace, bool align, BatchOptions batch) {
  source_ = &memory_.emplace(trace, batch);
  if (align) {
    syncs_ = trace.clock_syncs;
    align_.emplace(trace::fit_clocks(syncs_));
  }
  if (align_) stages_.push_back(&*align_);
  stages_.push_back(&order_);
}

}  // namespace tempest::pipeline
