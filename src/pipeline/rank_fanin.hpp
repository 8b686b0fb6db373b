// Multi-rank fan-in: merge N per-rank trace files in one pass.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pipeline/stage.hpp"
#include "pipeline/stages.hpp"

namespace tempest::pipeline {

/// Source that k-way-merges per-rank single-file inputs into one
/// globally time-ordered stream without ever materialising a combined
/// Trace.
///
/// open() opens every path as a ChunkedTraceSource, so a damaged rank
/// file is rejected before the first batch, and joins the complete
/// headers, trailers included, in path order (TraceHeader::append — ids
/// are not remapped, so ranks must carry globally unique node/thread
/// ids; tempest-lint's duplicate checks flag violations). Clocks are
/// fitted from the path-order concatenation of every rank's syncs — the
/// input fit_clocks sees on a concatenated trace.
///
/// Each rank then streams as one file does: ChunkedTraceSource, then
/// ClockAlignStage with the shared fits (unless `align` is off), then
/// its own OrderCheckStage, so a rank file may hold several skewed
/// nodes. next() merges the ranks' samples, and after them their
/// events, by timestamp, holding one batch per rank. Ties take the
/// lowest path index, which makes the merge a stable sort of the
/// concatenation: aligned, or in raw tsc with `align` off.
class RankFanIn : public Source {
 public:
  static Result<RankFanIn> open(const std::vector<std::string>& paths,
                                BatchOptions options = {}, bool align = true);

  const TraceMeta& meta() const override { return meta_; }

  Status next(EventBatch* out, bool* done) override;

  /// The path-order concatenation of every rank's sync records. The
  /// exporters feed these to ClockCorrelator for per-rank skew/drift
  /// metadata.
  const std::vector<trace::ClockSync>& sync_records() const { return syncs_; }

 private:
  struct Rank {
    std::unique_ptr<Source> source;  ///< the rank's ChunkedTraceSource
    OrderCheckStage order;
    EventBatch batch;  ///< aligned and ordered, merged from the front
    std::size_t sample_pos = 0;
    std::size_t event_pos = 0;
    bool done = false;  ///< the source is exhausted
  };

  RankFanIn() = default;

  /// Once `rank`'s batch is merged, pull its next non-empty one through
  /// the stages.
  Status refill(Rank* rank);

  TraceMeta meta_;
  BatchOptions options_;
  std::optional<ClockAlignStage> align_;
  std::vector<trace::ClockSync> syncs_;
  std::vector<Rank> ranks_;
};

}  // namespace tempest::pipeline
