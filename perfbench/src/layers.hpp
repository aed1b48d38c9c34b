// Per-layer probes for the traced run.
//
// Each probe times one public function of one library module at the
// workload's problem size, inside a "<module>.<function>" span, and
// reports the median of a few repetitions. The probes never run in an
// end-to-end run.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "report.hpp"
#include "terms/term.hpp"

namespace perfbench {

struct ProbeTarget {
  std::function<qokit::TermList()> build_terms;  ///< the workload's builder
  int p = 1;                                     ///< the workload's depth
  std::uint64_t seed = 1;
};

/// problems / terms / diagonal / statevector / fur / api / pipeline / simd /
/// batch metrics at the target's size.
std::vector<Metric> probe_layers(const ProbeTarget& target);

/// STREAM-triad bandwidth a[i] = b[i] + s*c[i] over three arrays whose
/// total is at least 4x the last-level cache (capped at 1 GiB), in GB/s
/// (10^9 bytes, 24 bytes counted per element). `sizes` receives the array
/// and cache sizes used.
double triad_gbps(std::string* sizes);

}  // namespace perfbench
