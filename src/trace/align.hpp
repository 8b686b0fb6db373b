// Cross-node clock alignment.
//
// Node TSCs are unsynchronised (offset + drift — the paper's §3.3
// limitation). During a run the runtime records ClockSync observations
// pairing each node's clock with the global clock at barriers. This
// module fits node_tsc -> global_tsc per node (least-squares line);
// the pipeline's ClockAlignStage rewrites every event/sample into the
// global domain through a ClockMap, and OrderCheckStage restores global
// time order, so the parser can correlate temperatures with code across
// nodes.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "trace/trace.hpp"

namespace tempest::trace {

/// Per-node affine clock map: global = a * (node - ref) + b.
struct ClockFit {
  std::uint64_t ref = 0;  ///< node-domain reference point
  double a = 1.0;         ///< rate ratio (captures drift)
  double b = 0.0;         ///< global value at ref (captures offset)

  std::uint64_t to_global(std::uint64_t node_tsc) const {
    const double dx = static_cast<double>(node_tsc) - static_cast<double>(ref);
    const double g = a * dx + b;
    return g <= 0.0 ? 0 : static_cast<std::uint64_t>(g);
  }
};

/// Every node's fit in one table indexed by node id, built once from a
/// fit_clocks result: aligning a record is an index and an inline
/// to_global instead of a tree walk. Nodes without a fit pass through
/// unchanged; a map with no fit at all is a single clock domain.
class ClockMap {
 public:
  ClockMap() = default;
  explicit ClockMap(const std::map<std::uint16_t, ClockFit>& fits);

  bool empty() const { return table_.empty(); }

  /// The node's fit, or nullptr when it has none.
  const ClockFit* find(std::uint16_t node) const {
    return node < table_.size() && table_[node].fitted ? &table_[node].fit : nullptr;
  }

  std::uint64_t to_global(std::uint16_t node, std::uint64_t tsc) const {
    const ClockFit* fit = find(node);
    return fit != nullptr ? fit->to_global(tsc) : tsc;
  }

  /// Rewrite every record's tsc (FnEvent or TempSample) in place.
  template <typename Record>
  void align(std::vector<Record>* records) const {
    for (Record& r : *records) r.tsc = to_global(r.node_id, r.tsc);
  }

 private:
  struct Entry {
    ClockFit fit;
    bool fitted = false;
  };
  std::vector<Entry> table_;  ///< up to the largest fitted node id
};

/// Fit clock maps from sync records. Nodes with one sync get
/// offset-only fits; nodes with none get the identity map. The
/// pipeline fits from a pre-pass over the sync sections before any
/// event batch flows.
std::map<std::uint16_t, ClockFit> fit_clocks(const std::vector<ClockSync>& syncs);

/// Largest |fit(node_tsc) - global_tsc| over each node's sync records,
/// in ticks. Quantifies how well the affine fit explains the
/// observations: a big residual means the node's clock wandered
/// nonlinearly between barriers, so cross-node timestamps carry that
/// much uncertainty. Nodes with no fit (or no syncs) are absent.
std::map<std::uint16_t, double> fit_residuals(const ClockMap& clocks,
                                              const std::vector<ClockSync>& syncs);

}  // namespace tempest::trace
