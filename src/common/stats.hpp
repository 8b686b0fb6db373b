// Statistics used in Tempest reports.
//
// The paper's standard output prints, per function and per sensor:
// Min, Avg, Max, Sdv, Var, Med (median), Mod (mode). Median and mode
// need the sample population, so SampleSet keeps the values (temperature
// sample counts are tiny: 4 Hz * run length). Moments is the O(1)
// summary that pools: per-function durations and sensor readings merged
// across nodes (tempest-diff, trend) and sessions (tempest-collectd).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tempest {

/// Summary of a sample population; all fields valid when count > 0.
struct StatsSummary {
  std::size_t count = 0;
  double min = 0.0;
  double avg = 0.0;
  double max = 0.0;
  double sdv = 0.0;  ///< population standard deviation
  double var = 0.0;  ///< population variance
  double med = 0.0;  ///< median (midpoint average for even counts)
  double mod = 0.0;  ///< mode (smallest value among ties)
};

/// Collects raw samples and produces the full seven-statistic summary.
class SampleSet {
 public:
  void add(double value) { values_.push_back(value); }
  void reserve(std::size_t n) { values_.reserve(n); }
  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  const std::vector<double>& values() const { return values_; }

  /// Compute the summary. Mode ties break toward the smallest value;
  /// mode equality uses exact double comparison, which is correct here
  /// because sensor readings are quantised before they reach the stats.
  StatsSummary summarize() const;

 private:
  std::vector<double> values_;
};

/// Population moments of a stream: count, mean and M2, the sum of
/// squared deviations from the mean. add() is Welford's update; merge()
/// is Chan's pairwise combine, so moments pooled across nodes or
/// sessions equal those of one pass up to float rounding. Pools keep M2
/// rather than a variance: merging it adds no variance * count round
/// trip per step.
struct Moments {
  std::uint64_t count = 0;
  double mean = 0.0;
  double m2 = 0.0;

  /// Moments of `count` values with this mean and population variance.
  static Moments from_variance(std::uint64_t count, double mean,
                               double variance) {
    return {count, mean, variance * static_cast<double>(count)};
  }

  void add(double value);
  /// Pool `other` in; the first merge into empty moments copies it.
  void merge(const Moments& other);
  /// Population variance; 0 when empty.
  double variance() const {
    return count == 0 ? 0.0 : m2 / static_cast<double>(count);
  }
};

}  // namespace tempest
