#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

/// 1-based nearest rank of percentile `p` among `n` sorted samples.
std::size_t NearestRank(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

Tail HighestTail(std::vector<double> values, int max_percentile,
                 std::size_t min_beyond) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  int p = max_percentile;
  for (; p > 50; --p) {
    if (n - NearestRank(n, p) >= min_beyond) break;
  }
  const std::size_t rank = NearestRank(n, p);
  tail.percentile = p;
  tail.value = values[rank - 1];
  tail.beyond = n - rank;
  return tail;
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace perfbench
