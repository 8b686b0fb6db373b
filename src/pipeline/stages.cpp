#include "pipeline/stages.hpp"

namespace tempest::pipeline {

Status ClockAlignStage::process(const TraceMeta& /*meta*/, EventBatch* batch) {
  if (clocks_.empty()) return Status::ok();  // single clock domain
  clocks_.align(&batch->fn_events);
  clocks_.align(&batch->temp_samples);
  batch->clock_syncs.clear();
  return Status::ok();
}

Status OrderCheckStage::process(const TraceMeta& /*meta*/, EventBatch* batch) {
  for (const auto& e : batch->fn_events) {
    if (e.tsc < last_event_tsc_) {
      return Status::error(
          "fn events are not in global time order after clock alignment; "
          "streaming analysis needs a time-sorted trace (use the batch path, "
          "which sorts in memory)");
    }
    last_event_tsc_ = e.tsc;
  }
  for (const auto& s : batch->temp_samples) {
    if (s.tsc < last_sample_tsc_) {
      return Status::error(
          "temperature samples are not in global time order after clock "
          "alignment; streaming analysis needs a time-sorted trace (use the "
          "batch path, which sorts in memory)");
    }
    last_sample_tsc_ = s.tsc;
  }
  return Status::ok();
}

}  // namespace tempest::pipeline
