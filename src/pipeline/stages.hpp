// In-flight batch transforms: clock alignment and order verification.
#pragma once

#include <cstdint>
#include <map>

#include "pipeline/stage.hpp"
#include "trace/align.hpp"

namespace tempest::pipeline {

/// Rewrites event/sample timestamps into the global clock domain using
/// fits from a sync pre-pass (ChunkedTraceSource::clock_fits), then
/// drops the consumed sync records — the streaming counterpart of
/// align_clocks. With an empty fit map (no syncs: a single clock
/// domain) batches pass through untouched, matching the batch path's
/// early return.
class ClockAlignStage : public Stage {
 public:
  explicit ClockAlignStage(const std::map<std::uint16_t, trace::ClockFit>& fits)
      : clocks_(fits) {}

  Status process(const TraceMeta& meta, EventBatch* batch) override;

 private:
  trace::ClockMap clocks_;
};

/// Verifies the ordering contract across batches: fn_events and
/// temp_samples each non-decreasing in tsc over the whole stream. The
/// batch path sorts after alignment; streaming cannot, so a trace whose
/// aligned records come out of file order must take the batch path —
/// the error says so.
class OrderCheckStage : public Stage {
 public:
  Status process(const TraceMeta& meta, EventBatch* batch) override;

 private:
  std::uint64_t last_event_tsc_ = 0;
  std::uint64_t last_sample_tsc_ = 0;
};

}  // namespace tempest::pipeline
