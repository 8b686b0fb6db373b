#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

namespace tempest {

StatsSummary SampleSet::summarize() const {
  StatsSummary s;
  s.count = values_.size();
  if (values_.empty()) return s;

  std::vector<double> sorted(values_);
  std::sort(sorted.begin(), sorted.end());

  s.min = sorted.front();
  s.max = sorted.back();

  double sum = 0.0;
  for (double v : sorted) sum += v;
  s.avg = sum / static_cast<double>(sorted.size());

  double sq = 0.0;
  for (double v : sorted) sq += (v - s.avg) * (v - s.avg);
  s.var = sq / static_cast<double>(sorted.size());
  s.sdv = std::sqrt(s.var);

  const std::size_t n = sorted.size();
  s.med = (n % 2 == 1) ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);

  // Mode over the sorted run-length encoding; first (smallest) maximal run wins.
  std::size_t best_len = 0;
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j < n && sorted[j] == sorted[i]) ++j;
    if (j - i > best_len) {
      best_len = j - i;
      s.mod = sorted[i];
    }
    i = j;
  }
  return s;
}

void Moments::add(double value) {
  ++count;
  const double delta = value - mean;
  mean += delta / static_cast<double>(count);
  m2 += delta * (value - mean);
}

void Moments::merge(const Moments& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  const double n = static_cast<double>(count);
  const double on = static_cast<double>(other.count);
  const double total = n + on;
  const double delta = other.mean - mean;
  mean += delta * on / total;
  m2 += other.m2 + delta * delta * n * on / total;
  count += other.count;
}

}  // namespace tempest
