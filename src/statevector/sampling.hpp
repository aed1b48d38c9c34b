// Measurement sampling from an evolved QAOA state.
//
// Sampling closes the algorithmic loop the paper's applications need: the
// quantum-speedup analysis on LABS (its Ref. [6]) and the sampling-
// frequency study (its Ref. [5]) both reason about the distribution of
// measured bitstrings, not just expectation values. Sampling uses an
// O(2^n) cumulative table and O(n) binary search per shot.
#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "statevector/state.hpp"

namespace qokit {

/// Sampler with a prebuilt cumulative distribution, reusable across shots.
class StateSampler {
 public:
  /// Builds the cumulative |amp|^2 table; the state need not be exactly
  /// normalized (the total mass is used as the scale).
  explicit StateSampler(const StateVector& sv);

  /// One measurement outcome.
  std::uint64_t sample(Rng& rng) const;

  /// `shots` independent outcomes. Throws std::invalid_argument for
  /// negative `shots`; zero shots returns an empty vector.
  std::vector<std::uint64_t> sample(int shots, Rng& rng) const;

  /// Seeded variant: draws from a fresh Rng(seed), so the stream is a
  /// function of (state, shots, seed) alone — whatever the Exec policy,
  /// which never reaches the sampler.
  std::vector<std::uint64_t> sample(int shots, std::uint64_t seed) const;

  /// Histogram of `shots` outcomes (bitstring -> count). Throws
  /// std::invalid_argument for negative `shots`.
  std::map<std::uint64_t, int> sample_counts(int shots, Rng& rng) const;

  /// Seeded variant of sample_counts (fresh Rng(seed), as above).
  std::map<std::uint64_t, int> sample_counts(int shots,
                                             std::uint64_t seed) const;

  /// The outcome for a given uniform variate u in [0, 1]: inverse-CDF
  /// lookup. Exposed so edge cases (u rounding up to the full mass with
  /// trailing zero-probability states) are directly testable; guaranteed to
  /// return an index with nonzero probability.
  std::uint64_t sample_from_uniform(double u01) const;

 private:
  std::vector<double> cumulative_;
  std::uint64_t last_nonzero_ = 0;  ///< largest index with |amp|^2 > 0
};

/// Convenience wrapper: build a sampler and draw `shots` outcomes.
std::vector<std::uint64_t> sample_states(const StateVector& sv, int shots,
                                         Rng& rng);

/// Seeded convenience wrapper (fresh Rng(seed) per call).
std::vector<std::uint64_t> sample_states(const StateVector& sv, int shots,
                                         std::uint64_t seed);

/// Shot-based objective estimate (what a real device or a sampling-based
/// workflow would report instead of the exact inner product).
struct SampledExpectation {
  double mean = 0.0;
  double std_error = 0.0;  ///< sqrt(sample variance / shots)
  int shots = 0;
};

/// Estimate <f> by measuring `shots` bitstrings and averaging f(x). Throws
/// std::invalid_argument for negative `shots`; zero shots returns the
/// well-defined empty estimate {mean 0, std_error 0, shots 0}.
template <class CostFn>
SampledExpectation estimate_expectation_sampled(const StateVector& sv,
                                                CostFn&& f, int shots,
                                                Rng& rng) {
  if (shots < 0)
    throw std::invalid_argument(
        "estimate_expectation_sampled: shots must be >= 0");
  if (shots == 0) return SampledExpectation{};
  StateSampler sampler(sv);
  double sum = 0.0, sum_sq = 0.0;
  for (int s = 0; s < shots; ++s) {
    const double v = f(sampler.sample(rng));
    sum += v;
    sum_sq += v * v;
  }
  SampledExpectation out;
  out.shots = shots;
  out.mean = sum / shots;
  const double var = sum_sq / shots - out.mean * out.mean;
  out.std_error = var > 0.0 ? std::sqrt(var / shots) : 0.0;
  return out;
}

}  // namespace qokit
