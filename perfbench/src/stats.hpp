#pragma once

// Order statistics shared by every workload: medians, quartiles and the
// tail percentile the benchmark reports next to each median.

#include <algorithm>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Linearly interpolated quantile (q in [0, 1]) between the closest ranks;
/// 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The highest percentile of a sample that still has at least
/// `min_beyond` samples above it, so a tail figure always rests on enough
/// observations. For n samples that is the (n - min_beyond)-th smallest
/// value, the 100 * (n - min_beyond) / n percentile. With fewer than
/// min_beyond + 1 samples no such percentile exists: the maximum is
/// returned and `beyond` tells how many samples lie above it (none).
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

inline Tail tailPercentile(std::vector<double> v, std::size_t min_beyond = 10) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  if (v.size() <= min_beyond) {
    t.percentile = 100.0;
    t.value = v.back();
    return t;
  }
  const std::size_t rank = v.size() - min_beyond;  // 1-based rank of the value
  t.value = v[rank - 1];
  t.beyond = min_beyond;
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(v.size());
  return t;
}

}  // namespace perfbench
