#include "collectd/session_fold.hpp"

#include <string>

#include "trace/writer.hpp"

namespace tempest::collectd {
namespace {

constexpr std::uint64_t kMaxSessionSyncs = 1u << 20;

bool unpack(std::string_view payload, std::vector<trace::FnEvent>* out) {
  return unpack_fn_events(payload, out);
}
bool unpack(std::string_view payload, std::vector<trace::TempSample>* out) {
  return unpack_temp_samples(payload, out);
}
Status add(pipeline::AnalysisPipeline* p, const std::vector<trace::FnEvent>& v) {
  p->add_fn_events(v.data(), v.size());
  return Status::ok();
}
Status add(pipeline::AnalysisPipeline* p, const std::vector<trace::TempSample>& v) {
  return p->add_temp_samples(v.data(), v.size());
}

}  // namespace

SessionFold::SessionFold(const parser::ProfileOptions& profile,
                         FoldScratch* scratch)
    : profile_(profile), scratch_(scratch) {}

Status SessionFold::apply(FrameType type, std::string_view payload) {
  ++counters_.frames;
  if (closed_) return Status::error("frame after BYE");
  if (!opened_ && type != FrameType::kHello) {
    return Status::error("frame before HELLO");
  }
  if (opened_ && type == FrameType::kHello) return Status::error("second HELLO");
  switch (type) {
    case FrameType::kHello:
      if (!unpack_hello(payload, &hello_)) return Status::error("malformed HELLO");
      if (hello_.protocol != kProtocolVersion) {
        return Status::error("protocol version " + std::to_string(hello_.protocol));
      }
      opened_ = true;
      return Status::ok();
    case FrameType::kHeartbeat:
      fold_heartbeat(payload);
      return Status::ok();
    case FrameType::kMeta: {
      if (pipeline_ != nullptr) {
        return Status::error("duplicate META (would reset the fold)");
      }
      trace::Trace meta;
      if (!unpack_meta(payload, &meta)) return Status::error("malformed META");
      pipeline::AnalysisOptions options;
      options.profile = profile_;
      options.timeline_hint = 1u << 12;
      options.thermal = false;  // no endpoint serves thermal data
      pipeline_ = std::make_unique<pipeline::AnalysisPipeline>(options);
      pipeline_->set_metadata(meta);  // RUNSTATS trailer included
      return Status::ok();
    }
    case FrameType::kSyncs:
      syncs_ += payload.size() / trace::kClockSyncRecordSize;
      if (payload.size() % trace::kClockSyncRecordSize != 0 ||
          syncs_ > kMaxSessionSyncs) {
        return Status::error("malformed SYNCS");
      }
      return Status::ok();
    case FrameType::kEvents:
      return fold_records("EVENTS", payload, &scratch_->events,
                          &last_event_tsc_, &counters_.events);
    case FrameType::kSamples:
      return fold_records("SAMPLES", payload, &scratch_->samples,
                          &last_sample_tsc_, &counters_.samples);
    case FrameType::kBye: {
      Bye bye;
      if (!unpack_bye(payload, &bye) || pipeline_ == nullptr) {
        return Status::error("malformed BYE");
      }
      if (bye.events_sent != counters_.events ||
          bye.samples_sent != counters_.samples) {
        return Status::error("BYE counts disagree with the stream (events " +
                             std::to_string(bye.events_sent) + " vs " +
                             std::to_string(counters_.events) + ")");
      }
      result_ = pipeline_->finish();
      pipeline_.reset();
      closed_ = true;
      return Status::ok();
    }
  }
  return Status::error("unknown frame type");
}

void SessionFold::fold_heartbeat(std::string_view line) {
  heartbeat_ = json::read_numbers(line);
  const double seq_value = heartbeat_.get("seq");
  const std::uint64_t seq = seq_value >= 1.0 && seq_value < 0x1p64
                                ? static_cast<std::uint64_t>(seq_value)
                                : 0;
  if (seq > 0) {
    const std::uint64_t last = counters_.last_seq;
    if (last > 0 && seq > last + 1) {
      counters_.heartbeat_gaps += seq - last - 1;
    } else if (last > 0 && seq < last) {
      ++counters_.heartbeat_restarts;
    }
    counters_.last_seq = seq;
  }
  counters_.last_t = heartbeat_.get("t");
  ++counters_.heartbeats;
}

/// EVENTS and SAMPLES: unpack into the shard's scratch, check that the
/// stream's timestamps never decrease, fold, count.
template <typename Record>
Status SessionFold::fold_records(const char* what, std::string_view payload,
                                 std::vector<Record>* scratch,
                                 std::uint64_t* last_tsc,
                                 std::uint64_t* folded) {
  if (pipeline_ == nullptr) return Status::error(std::string(what) + " before META");
  scratch->clear();
  if (!unpack(payload, scratch)) return Status::error(std::string("malformed ") + what);
  std::uint64_t last = *last_tsc;
  for (const Record& r : *scratch) {
    if (r.tsc < last) return Status::error(std::string("out-of-order ") + what);
    last = r.tsc;
  }
  *last_tsc = last;
  const Status added = add(pipeline_.get(), *scratch);
  if (added) *folded += scratch->size();
  return added;
}

}  // namespace tempest::collectd
