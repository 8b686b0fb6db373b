#include "export/clock.hpp"

#include <map>

namespace tempest::exporter {

ClockCorrelator::ClockCorrelator(double tsc_ticks_per_second,
                                 const std::vector<trace::ClockSync>& syncs) {
  // A zero/negative rate only appears in hand-built or corrupt traces;
  // fall back to "one tick is one microsecond" so timestamps stay
  // finite instead of dividing by zero.
  ticks_per_us_ =
      tsc_ticks_per_second > 0.0 ? tsc_ticks_per_second / 1e6 : 1.0;
  if (syncs.empty()) return;

  const auto fits = trace::fit_clocks(syncs);
  const auto residuals = trace::fit_residuals(trace::ClockMap(fits), syncs);
  std::map<std::uint16_t, std::size_t> counts;
  for (const auto& s : syncs) ++counts[s.node_id];

  ranks_.reserve(fits.size());
  for (const auto& [node_id, fit] : fits) {
    RankClock rank;
    rank.node_id = node_id;
    rank.sync_count = counts[node_id];
    rank.skew_us =
        (fit.b - static_cast<double>(fit.ref)) / ticks_per_us_;
    rank.drift_ppm = (fit.a - 1.0) * 1e6;
    const auto r = residuals.find(node_id);
    rank.residual_us =
        r == residuals.end() ? 0.0 : r->second / ticks_per_us_;
    if (rank.residual_us > max_residual_us_) {
      max_residual_us_ = rank.residual_us;
    }
    ranks_.push_back(rank);
  }
}

}  // namespace tempest::exporter
