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
  auto opened = trace::TraceStreamReader::open_file(path);
  if (!opened.is_ok()) return Result<ChunkedTraceSource>::error(opened.message());
  trace::TraceStreamReader reader = std::move(opened).value();
  // A lone trace file has exactly one payload.
  const Status eof = reader.expect_eof();
  if (!eof) return Result<ChunkedTraceSource>::error(eof.message());
  return ChunkedTraceSource(std::move(reader), options);
}

Status ChunkedTraceSource::next(EventBatch* out, bool* done) {
  // Samples first, from the pre-pass, released once all are out; then
  // the events. The call that finds neither ends the stream.
  std::vector<trace::TempSample>& samples = reader_.temp_samples();
  Status read = Status::ok();
  if (!take_slice(samples, &sample_pos_, options_.batch_records, &out->temp_samples)) {
    std::size_t appended = 0;
    read = reader_.next_fn_events(&out->fn_events, options_.batch_records, &appended);
  } else if (sample_pos_ == samples.size()) {
    std::vector<trace::TempSample>().swap(samples);
    sample_pos_ = 0;
  }
  *done = out->empty();
  return read;
}

Result<std::map<std::uint16_t, trace::ClockFit>> ChunkedTraceSource::clock_fits() {
  return trace::fit_clocks(reader_.clock_syncs());
}

Result<std::vector<trace::ClockSync>> ChunkedTraceSource::clock_syncs_ahead() {
  return reader_.clock_syncs();
}

Status MemoryTraceSource::next(EventBatch* out, bool* done) {
  const trace::Trace& t = *trace_;
  const std::size_t cap = options_.batch_records;
  (void)(take_slice(t.temp_samples, &sample_pos_, cap, &out->temp_samples) ||
         take_slice(t.fn_events, &event_pos_, cap, &out->fn_events));
  *done = out->empty();
  return Status::ok();
}

Status TraceInput::open(const std::vector<std::string>& paths, bool align,
                        unsigned threads, BatchOptions batch) {
  if (paths.size() != 1) {
    auto opened = RankFanIn::open(paths, batch, align);
    if (!opened.is_ok()) return Status::error(opened.message());
    source_ = &fan_.emplace(std::move(opened).value());
    if (align) syncs_ = fan_->sync_records();
  } else {
    auto opened = ChunkedTraceSource::open(paths[0], batch);
    if (!opened.is_ok()) return Status::error(opened.message());
    source_ = &chunked_.emplace(std::move(opened).value());
    if (threads > 1) chunked_->set_decode_pool(&pool_.emplace(threads));
    if (align) {
      syncs_ = chunked_->clock_syncs_ahead().value();
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
