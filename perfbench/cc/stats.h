// Order statistics for the benchmark's reports.
//
// Timings are reported as a median plus the highest percentile (at most
// p99) that still has at least ten samples beyond it, together with the
// sample count, so that a tail figure never rests on one or two outliers.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 when empty.
double Median(std::vector<double> values);

/// A tail figure: which percentile was reported, its value, and the counts
/// behind it.
struct Tail {
  int percentile = 0;       ///< e.g. 99
  double value = 0;
  std::size_t samples = 0;  ///< total samples
  std::size_t beyond = 0;   ///< samples strictly ranked above the value
};

/// The highest integer percentile <= `max_percentile` with at least
/// `min_beyond` samples ranked above it (nearest-rank). With fewer than
/// 2 * min_beyond samples no percentile >= 50 qualifies and the median rank
/// is reported with `beyond` telling how thin it is.
Tail HighestTail(std::vector<double> values, int max_percentile = 99,
                 std::size_t min_beyond = 10);

/// Geometric mean of positive values; 0 when empty.
double GeoMean(const std::vector<double>& values);

}  // namespace perfbench
