#include "trace/align.hpp"

#include <cmath>
#include <vector>

namespace tempest::trace {

ClockMap::ClockMap(const std::map<std::uint16_t, ClockFit>& fits) {
  if (fits.empty()) return;
  table_.resize(std::size_t{fits.rbegin()->first} + 1);
  for (const auto& [node, fit] : fits) table_[node] = {fit, true};
}

std::map<std::uint16_t, ClockFit> fit_clocks(const std::vector<ClockSync>& all_syncs) {
  std::map<std::uint16_t, std::vector<const ClockSync*>> by_node;
  for (const auto& s : all_syncs) by_node[s.node_id].push_back(&s);

  std::map<std::uint16_t, ClockFit> fits;
  for (const auto& [node, syncs] : by_node) {
    ClockFit fit;
    fit.ref = syncs.front()->node_tsc;
    if (syncs.size() == 1) {
      fit.a = 1.0;
      fit.b = static_cast<double>(syncs.front()->global_tsc);
    } else {
      // Least squares on (node - ref, global) — deltas keep the doubles
      // well inside their 53-bit exact range for any realistic run.
      double sx = 0, sy = 0, sxx = 0, sxy = 0;
      const double n = static_cast<double>(syncs.size());
      for (const ClockSync* s : syncs) {
        const double x = static_cast<double>(s->node_tsc) - static_cast<double>(fit.ref);
        const double y = static_cast<double>(s->global_tsc);
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
      }
      const double denom = n * sxx - sx * sx;
      if (denom > 0.0) {
        fit.a = (n * sxy - sx * sy) / denom;
        fit.b = (sy - fit.a * sx) / n;
      } else {
        fit.a = 1.0;
        fit.b = sy / n;
      }
    }
    fits[node] = fit;
  }
  return fits;
}

std::map<std::uint16_t, double> fit_residuals(const ClockMap& clocks,
                                              const std::vector<ClockSync>& syncs) {
  std::map<std::uint16_t, double> residuals;
  for (const ClockSync& s : syncs) {
    const ClockFit* found = clocks.find(s.node_id);
    if (found == nullptr) continue;
    const ClockFit& fit = *found;
    // Evaluate the fit in doubles (to_global rounds to ticks, which
    // would quantise sub-tick residuals away).
    const double dx =
        static_cast<double>(s.node_tsc) - static_cast<double>(fit.ref);
    const double predicted = fit.a * dx + fit.b;
    const double r = std::abs(predicted - static_cast<double>(s.global_tsc));
    auto [slot, inserted] = residuals.try_emplace(s.node_id, r);
    if (!inserted && r > slot->second) slot->second = r;
  }
  return residuals;
}

}  // namespace tempest::trace
