// Sample statistics for the benchmark's timings.
//
// Percentiles use the nearest-rank definition on integer per-mille levels,
// so "how many samples lie beyond" is exact: at level q over n samples the
// reported value is the ceil(q*n)-th smallest, and n - ceil(q*n) samples
// lie above it. A timing is reported as its median plus the highest level
// of kTailLevels that keeps at least kMinBeyond samples beyond it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Samples that must lie above a reported tail percentile.
inline constexpr std::size_t kMinBeyond = 10;

/// Candidate tail levels in per mille, lowest first.
inline constexpr int kTailLevels[] = {500, 900, 990, 999};

/// 1-based rank of the level-`permille` nearest-rank percentile of n.
inline std::size_t percentile_rank(std::size_t n, int permille) {
  const std::size_t rank =
      (n * static_cast<std::size_t>(permille) + 999) / 1000;
  return rank == 0 ? 1 : rank;
}

/// Samples strictly beyond the level-`permille` percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, int permille) {
  return n - percentile_rank(n, permille);
}

/// Highest level of kTailLevels with at least kMinBeyond samples beyond it
/// when a run holds `n` samples; throws when even the median has fewer.
inline int tail_level(std::size_t n) {
  int best = 0;
  for (int level : kTailLevels)
    if (n >= percentile_rank(n, level) + kMinBeyond) best = level;
  if (best == 0)
    throw std::invalid_argument(
        "tail_level: fewer than 20 samples, no percentile has 10 beyond");
  return best;
}

/// Nearest-rank percentile of `values` (copied and sorted).
inline double percentile(std::vector<double> values, int permille) {
  if (values.empty()) throw std::invalid_argument("percentile: no samples");
  std::sort(values.begin(), values.end());
  return values[percentile_rank(values.size(), permille) - 1];
}

/// Median (mean of the two middle values for an even count).
inline double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median: no samples");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : 0.5 * (values[mid - 1] + values[mid]);
}

/// A tail percentile that a burst of outside load confined to part of the
/// run cannot drag: `values` (in time order) is cut into consecutive
/// windows of at least `window` samples, the level-`permille` percentile
/// is taken in each, and the median over windows is returned.
inline double windowed_percentile(const std::vector<double>& values,
                                  std::size_t window, int permille) {
  if (window == 0 || values.size() < window)
    throw std::invalid_argument("windowed_percentile: fewer samples than a window");
  const std::size_t windows = values.size() / window;
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto begin = values.begin() + static_cast<std::ptrdiff_t>(w * window);
    const auto end = w + 1 == windows ? values.end()
                                      : begin + static_cast<std::ptrdiff_t>(window);
    per_window.push_back(percentile(std::vector<double>(begin, end), permille));
  }
  return median(per_window);
}

/// "p50", "p90", "p99", "p99.9" for a per-mille level.
inline const char* level_name(int permille) {
  switch (permille) {
    case 500: return "p50";
    case 900: return "p90";
    case 990: return "p99";
    case 999: return "p99.9";
    default: return "p?";
  }
}

}  // namespace perfbench
