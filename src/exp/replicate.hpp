// Multi-seed replication statistics: summarize one metric's distribution
// across seeds — the usual way to check that a single-seed result is not a
// fluke.  The seeded runs themselves are ordinary sweep::Items (one per
// seed), so they ride the sweep engine's pool and result cache like every
// other battery; see bench/replication.cpp.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

namespace pp::exp {

struct ReplicateStats {
  double mean = 0, stddev = 0, min = 0, max = 0;
  int n = 0;
  // Half-width of a ~95% normal confidence interval on the mean.
  double ci95() const {
    return n > 1 ? 1.96 * stddev / std::sqrt(static_cast<double>(n)) : 0;
  }
};

inline ReplicateStats summarize_samples(const std::vector<double>& xs) {
  ReplicateStats s;
  s.n = static_cast<int>(xs.size());
  if (xs.empty()) return s;
  s.min = s.max = xs[0];
  for (double x : xs) {
    s.mean += x;
    s.min = std::min(s.min, x);
    s.max = std::max(s.max, x);
  }
  s.mean /= s.n;
  double var = 0;
  for (double x : xs) var += (x - s.mean) * (x - s.mean);
  s.stddev = s.n > 1 ? std::sqrt(var / (s.n - 1)) : 0;
  return s;
}

}  // namespace pp::exp
