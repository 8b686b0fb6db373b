// In-flight batch transforms: clock alignment and cross-node ordering.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "pipeline/stage.hpp"
#include "trace/align.hpp"

namespace tempest::pipeline {

/// Rewrites event/sample timestamps into the global clock domain using
/// fits from the reader's sync pre-pass (ChunkedTraceSource::clock_fits).
/// With an empty fit map (no syncs: a single clock domain) batches pass
/// through untouched.
class ClockAlignStage : public Stage {
 public:
  explicit ClockAlignStage(const std::map<std::uint16_t, trace::ClockFit>& fits)
      : clocks_(fits) {}

  Status process(const TraceMeta& meta, EventBatch* batch) override;

 private:
  trace::ClockMap clocks_;
};

/// One record kind's window in OrderCheckStage: each lane's last-seen
/// tsc, and the records held back in order, ties in arrival order.
template <typename Record>
class OrderWindow {
 public:
  /// The lane of `node`, opened on first use.
  std::uint32_t lane(std::uint16_t node);

  /// Replaces `records`, one batch in arrival order, with the records
  /// now safe to release, in order — with `flush`, every record.
  Status admit(std::vector<Record>* records, bool flush, double ticks_per_second);

  std::size_t held() const { return held_.size(); }

 private:
  std::vector<Record> held_;
  /// Per lane; UINT64_MAX once a lane stops counting. Lane 0 means "no
  /// lane" in lane_of_ and never counts.
  std::vector<std::uint64_t> last_{UINT64_MAX};
  std::vector<std::uint64_t> seen_{0};  ///< per lane: the batch that last set it
  std::uint64_t stamp_ = 0;             ///< batches scanned
  std::vector<std::uint32_t> lane_of_;  ///< node id -> lane
  std::size_t known_ = 0;               ///< every node id below has a lane
  std::uint64_t released_tsc_ = 0;      ///< the last record released
};

/// Restores global time order across nodes after clock alignment, which
/// shifts nodes against each other while each stays in order (DESIGN.md
/// §8). One lane per node, seeded from meta.threads (events) and
/// meta.sensors (samples); other nodes open one on first sight. Held
/// records below the watermark W, the smallest last-seen tsc over the
/// lanes, go out as a stable sort of the window (the strict < keeps ties
/// in arrival order). Held samples go out before events pass; the
/// end_of_stream batch flushes all. Past kMaxHeldRecords, the lane
/// pinning W lowest stops counting, and a record then landing behind
/// released output fails the run, naming its node.
class OrderCheckStage : public Stage {
 public:
  /// 2^20 records: 24 MiB of events. Samples all go out before events
  /// are held, so the bound per kind bounds the stage.
  static constexpr std::size_t kMaxHeldRecords = std::size_t{1} << 20;

  Status process(const TraceMeta& meta, EventBatch* batch) override;

 private:
  OrderWindow<trace::FnEvent> events_;
  OrderWindow<trace::TempSample> samples_;
  bool seeded_ = false;
};

}  // namespace tempest::pipeline
