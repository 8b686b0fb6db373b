// Profile model: the parser's output.
//
// Mirrors the paper's standard output: per node, functions ordered by
// total inclusive time, each with per-sensor Min/Avg/Max/Sdv/Var/Med/Mod
// over the temperature samples taken while the function ran (inclusive
// attribution: a sample credits every function on the stack, which is
// why `main` summarises the whole run). The timeline has already
// credited the samples — each function carries ranges of positions in
// its node's sample stream — so assembly only reads those samples back.
// Functions shorter than the sampling interval carry a nearest-sample
// snapshot flagged not significant, as discussed for foo2 in Fig 2a.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "parser/timeline.hpp"
#include "trace/trace.hpp"

namespace tempest::parser {

struct SensorProfile {
  std::uint16_t sensor_id = 0;
  std::string name;
  std::size_t sample_count = 0;
  StatsSummary stats;  ///< in the profile's display unit
};

/// Per-call (outermost-activation) inclusive duration statistics,
/// derived from the timeline's exact integer sums at assembly time.
/// `count` is the number of closed outermost activations — the sample
/// count behind mean/var, smaller than `calls` under recursion.
/// Variance is population variance (matching StatsSummary), so a
/// Welch-style comparison between two runs divides by count, not n-1.
struct TimeStats {
  std::uint64_t count = 0;
  double mean_s = 0.0;
  double sdv_s = 0.0;
  double var_s2 = 0.0;  ///< seconds²
};

struct FunctionProfile {
  std::uint64_t addr = 0;
  std::string name;
  double total_time_s = 0.0;  ///< inclusive
  std::uint64_t calls = 0;
  TimeStats time;  ///< per-activation duration stats (diff significance input)
  bool significant = true;  ///< enough samples for meaningful thermal stats
  std::vector<SensorProfile> sensors;  ///< ordered by sensor id
};

struct NodeProfile {
  std::uint16_t node_id = 0;
  std::string hostname;
  double duration_s = 0.0;  ///< first to last event/sample on this node
  std::vector<FunctionProfile> functions;  ///< sorted by total time, descending
};

struct RunProfile {
  TempUnit unit = TempUnit::kFahrenheit;
  double duration_s = 0.0;
  std::vector<NodeProfile> nodes;  ///< ordered by node id
  TimelineDiagnostics diagnostics;

  /// The first function profile named `name` on node `node_id`, in
  /// node then function order; nullptr when absent.
  const FunctionProfile* find(std::uint16_t node_id, const std::string& name) const;
};

struct ProfileOptions {
  TempUnit unit = TempUnit::kFahrenheit;
  std::size_t min_samples_significant = 2;
};

/// Incremental profile assembly. Metadata arrives once (set_metadata),
/// temperature samples arrive in batches, each node's in time order
/// (add_samples — owned copies, batches are transient in the pipeline),
/// and assemble() reads a finished timeline's credited sample ranges
/// back into per-sensor statistics.
/// Sample storage is the only O(samples) state; samples are ~1% of
/// events in practice.
class ProfileAssembler {
 public:
  explicit ProfileAssembler(ProfileOptions options) : options_(options) {}

  /// Record node/sensor inventory and the tick rate.
  void set_metadata(const trace::TraceHeader& header);

  /// Append a batch of temperature samples — the same stream, in the
  /// same order, as the timeline's, so its sample positions index them.
  void add_samples(const trace::TempSample* samples, std::size_t n);

  /// Assemble the profile from `timeline`'s credited samples, activity
  /// bounds and sums. `run_start`/`run_end` span every event and sample;
  /// `names` must map every address appearing in the timeline.
  RunProfile assemble(std::uint64_t run_start, std::uint64_t run_end,
                      const TimelineMap& timeline,
                      const std::vector<std::pair<std::uint64_t, std::string>>& names,
                      TimelineDiagnostics diagnostics) const;

  /// The collected samples, in arrival order (time-sorted by contract).
  /// The series extractors reuse them instead of keeping a second copy.
  const std::vector<trace::TempSample>& samples() const { return samples_; }

 private:
  ProfileOptions options_;
  double tsc_ticks_per_second_ = 0.0;
  std::vector<trace::NodeInfo> nodes_;
  std::vector<trace::SensorMeta> sensors_;
  std::vector<trace::TempSample> samples_;
};

}  // namespace tempest::parser
