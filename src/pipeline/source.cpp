#include "pipeline/source.hpp"

#include <algorithm>

namespace tempest::pipeline {

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
  if (sample_pos_ < samples.size()) {
    const std::size_t n = std::min(options_.batch_records, samples.size() - sample_pos_);
    out->temp_samples.assign(samples.begin() + static_cast<std::ptrdiff_t>(sample_pos_),
                             samples.begin() + static_cast<std::ptrdiff_t>(sample_pos_ + n));
    sample_pos_ += n;
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

  if (sample_pos_ < t.temp_samples.size()) {
    const std::size_t n = std::min(cap, t.temp_samples.size() - sample_pos_);
    out->temp_samples.assign(
        t.temp_samples.begin() + static_cast<std::ptrdiff_t>(sample_pos_),
        t.temp_samples.begin() + static_cast<std::ptrdiff_t>(sample_pos_ + n));
    sample_pos_ += n;
  } else if (event_pos_ < t.fn_events.size()) {
    const std::size_t n = std::min(cap, t.fn_events.size() - event_pos_);
    out->fn_events.assign(t.fn_events.begin() + static_cast<std::ptrdiff_t>(event_pos_),
                          t.fn_events.begin() + static_cast<std::ptrdiff_t>(event_pos_ + n));
    event_pos_ += n;
  } else if (sync_pos_ < t.clock_syncs.size()) {
    const std::size_t n = std::min(cap, t.clock_syncs.size() - sync_pos_);
    out->clock_syncs.assign(
        t.clock_syncs.begin() + static_cast<std::ptrdiff_t>(sync_pos_),
        t.clock_syncs.begin() + static_cast<std::ptrdiff_t>(sync_pos_ + n));
    sync_pos_ += n;
  }
  *done = event_pos_ >= t.fn_events.size() &&
          sample_pos_ >= t.temp_samples.size() &&
          sync_pos_ >= t.clock_syncs.size();
  return Status::ok();
}

}  // namespace tempest::pipeline
