// Multi-rank fan-in: merge N per-rank trace files in one pass.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pipeline/stage.hpp"
#include "trace/align.hpp"
#include "trace/reader.hpp"

namespace tempest::pipeline {

/// Source that k-way-merges per-rank trace files into one globally
/// time-ordered stream without ever materialising a combined Trace.
///
/// open() reads every header, concatenates metadata in path order
/// (TraceHeader::append — ids are not remapped, so ranks must carry
/// globally unique node/thread ids; tempest-lint's duplicate checks
/// flag violations), and reads each rank's small sample and sync
/// sections ahead (seek over the event payload and back). Clocks are
/// fitted from the path-order concatenation of all sync records — the
/// same input order fit_clocks sees on a concatenated trace — and the
/// held samples are aligned through the fits.
///
/// next() then merges the samples, and after them the events, by
/// aligned global timestamp, refilling one bounded event buffer per
/// rank. Ties take the lowest path index, which makes the merge
/// equivalent to a stable_sort of the concatenation. Each rank must stay
/// in order after alignment (a file of several skewed nodes streams on
/// its own instead). Sync records are consumed by the pre-pass and
/// never emitted; batches leave this source already aligned and
/// sorted, so no ClockAlignStage is needed downstream.
class RankFanIn : public Source {
 public:
  static Result<RankFanIn> open(const std::vector<std::string>& paths,
                                BatchOptions options = {});

  const TraceMeta& meta() const override { return meta_; }

  Status next(EventBatch* out, bool* done) override;

  /// The path-order concatenation of every rank's sync records, as
  /// collected by the open()-time pre-pass. Exporters feed these to
  /// ClockCorrelator for per-rank skew/drift metadata; the fan-in
  /// itself has already consumed them for alignment.
  const std::vector<trace::ClockSync>& sync_records() const { return syncs_; }

 private:
  struct Rank {
    std::string path;
    /// Heap-allocated so the reader's stream pointer survives moves.
    std::unique_ptr<std::ifstream> in;
    std::optional<trace::TraceStreamReader> reader;
    std::vector<trace::TempSample> samples;  ///< read ahead, aligned
    std::size_t sample_pos = 0;
    std::vector<trace::FnEvent> events;
    std::size_t event_pos = 0;
    bool events_done = false;
    /// Last aligned event timestamp emitted — enforces that each rank's
    /// stream stays monotone after the clock fit.
    std::uint64_t last_event_tsc = 0;
  };

  RankFanIn() = default;

  Status fill_events(Rank* rank);

  TraceMeta meta_;
  BatchOptions options_;
  trace::ClockMap clocks_;
  std::vector<trace::ClockSync> syncs_;
  std::vector<Rank> ranks_;
  int phase_ = 0;  ///< 0 = merging samples, 1 = merging events, 2 = done
};

}  // namespace tempest::pipeline
