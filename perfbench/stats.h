// Order statistics used by every reported timing.
//
// Percentiles are nearest-rank over the sample (the same convention as
// common::Percentiles). A tail percentile is only meaningful when enough
// samples lie beyond it, so the benchmark reports, for each distribution,
// the highest candidate percentile that leaves at least ten samples above
// it (tail_percentile) and states the sample count next to it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples that must lie beyond a reported tail percentile.
constexpr double kTailSamples = 10.0;

/// Nearest-rank percentile `p` (0 < p <= 100) of `v`; 0 for an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx =
      rank < 1.0 ? 0 : std::min(v.size(), static_cast<size_t>(rank)) - 1;
  return v[idx];
}

/// Median (mean of the two middle values for an even count); 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// True when percentile `p` of `n` samples has at least kTailSamples
/// samples beyond it.
inline bool tail_qualifies(size_t n, double p) {
  return static_cast<double>(n) * (100.0 - p) / 100.0 >= kTailSamples - 1e-9;
}

/// The highest of the candidate percentiles (50, 90, 95, 99, 99.9) that
/// leaves at least kTailSamples samples beyond it; 0 when even the median
/// does not (fewer than 20 samples).
inline double tail_percentile(size_t n) {
  static constexpr double kCandidates[] = {99.9, 99.0, 95.0, 90.0, 50.0};
  for (double p : kCandidates)
    if (tail_qualifies(n, p)) return p;
  return 0.0;
}

/// Percentile `p` of `v` when it qualifies under the tail rule, else 0.
inline double qualified_percentile(const std::vector<double>& v, double p) {
  return tail_qualifies(v.size(), p) ? percentile(v, p) : 0.0;
}

}  // namespace perfbench
