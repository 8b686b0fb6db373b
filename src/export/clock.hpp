// Cross-rank clock correlation for the interactive trace exporters.
//
// The pipeline already rewrites every record into the global tsc domain
// (ClockAlignStage, also inside RankFanIn for each rank).
// What the viewers need on top is (a) a shared human timebase —
// microseconds since the run start, which is what Perfetto's `ts` and
// speedscope's `at` fields mean — and (b) an honest account of how
// well the per-rank affine fits explain the sync observations, so a
// user scrubbing a 4-rank timeline knows whether a 30 us cross-rank
// gap is real or inside the correlation error. ClockCorrelator owns
// both: it refits the same sync records the source consumed
// (trace::fit_clocks, so the numbers match the alignment that actually
// ran) and converts aligned timestamps against a base fixed at the
// first exported record.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/align.hpp"
#include "trace/trace.hpp"

namespace tempest::exporter {

/// Per-rank (per-node) clock-correlation summary, derived from the
/// rank's sync records. All quantities are in the global timebase.
struct RankClock {
  std::uint16_t node_id = 0;
  std::size_t sync_count = 0;
  /// Global minus rank-local clock at the fit's reference point, us —
  /// how far this rank's clock sat behind (positive) or ahead of
  /// (negative) the global clock.
  double skew_us = 0.0;
  /// Rate error of the rank clock against the global clock, parts per
  /// million ((fit slope - 1) * 1e6) — the drift the fit removed.
  double drift_ppm = 0.0;
  /// Largest |fit(node_tsc) - global_tsc| over the rank's syncs, us —
  /// the correlation error left after the affine fit.
  double residual_us = 0.0;
};

/// Maps aligned (global-domain) tsc values onto one microsecond
/// timebase and summarises the per-rank fits behind the alignment.
class ClockCorrelator {
 public:
  /// `syncs` is the record stream the alignment was fitted from
  /// (ChunkedTraceSource::clock_syncs_ahead, RankFanIn::sync_records or
  /// Trace::clock_syncs, as TraceInput::syncs hands them on). An empty
  /// vector means a single clock domain: no rank metadata, zero
  /// residual.
  ClockCorrelator(double tsc_ticks_per_second,
                  const std::vector<trace::ClockSync>& syncs);

  /// Fix the timebase origin; to_us is relative to it. Exporters call
  /// this with the first aligned record timestamp they see, so both
  /// output formats start near t=0.
  void set_base(std::uint64_t base_tsc) {
    base_ = base_tsc;
    has_base_ = true;
  }
  bool has_base() const { return has_base_; }
  std::uint64_t base() const { return base_; }

  /// Aligned tsc -> microseconds since base (signed: a record that
  /// precedes the base, e.g. an early temperature sample, maps below
  /// zero rather than wrapping).
  double to_us(std::uint64_t aligned_tsc) const {
    return static_cast<double>(static_cast<std::int64_t>(aligned_tsc - base_)) /
           ticks_per_us_;
  }

  /// Ticks -> microseconds without rebasing (durations, periods).
  double ticks_to_us(double ticks) const { return ticks / ticks_per_us_; }

  /// Ranks that contributed sync records, ordered by node id. Empty
  /// for single-domain traces.
  const std::vector<RankClock>& ranks() const { return ranks_; }

  /// Largest residual across ranks, us (0 when no syncs).
  double max_residual_us() const { return max_residual_us_; }

 private:
  double ticks_per_us_ = 1.0;
  std::uint64_t base_ = 0;
  bool has_base_ = false;
  std::vector<RankClock> ranks_;
  double max_residual_us_ = 0.0;
};

}  // namespace tempest::exporter
