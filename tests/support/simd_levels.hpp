// SIMD dispatch levels for the parity suites: every level this binary has
// compiled in and this machine supports, so an AVX-512 host still covers
// AVX2 (and the scalar oracle) instead of only its detected level.
#pragma once

#include <vector>

#include "common/cpu_features.hpp"

namespace qokit::testing {

/// Every compiled-in, machine-supported level, scalar first.
inline std::vector<SimdLevel> supported_simd_levels() {
  std::vector<SimdLevel> out;
  for (SimdLevel level :
       {SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512})
    if (simd_level_supported(level)) out.push_back(level);
  return out;
}

/// The supported levels above scalar (empty on a scalar-only build/host).
inline std::vector<SimdLevel> vector_simd_levels() {
  std::vector<SimdLevel> out = supported_simd_levels();
  out.erase(out.begin());
  return out;
}

/// Restores the dispatch level that was active at construction (which may
/// be a QOKIT_SIMD=scalar override, not the detected level).
struct SimdLevelGuard {
  SimdLevel entry = active_simd_level();
  ~SimdLevelGuard() { force_simd_level(entry); }
};

}  // namespace qokit::testing
