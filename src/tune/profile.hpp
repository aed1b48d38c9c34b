// TuneProfile: the machine-adaptive execution configuration.
//
// A profile is everything the runtime adapts per machine: the pipeline
// Geometry (tile/group/chunk), the thread count, and the NUMA placement
// policy. It is computed from a MachineProbe by a closed-form heuristic
// (heuristic_profile — pure, unit-testable against fake topologies).
//
// The contract that makes this safe: a profile changes only *how* the
// state is traversed (Geometry, threads, page placement), never the
// per-amplitude arithmetic — so every profile is bit-identical to the
// static oracle (`QOKIT_TUNE=off` / tune=static), pinned by
// tests/test_tune.cpp across every backend and Exec policy.
//
// Profile lifecycle (resolve_profile, the make_simulator entry point):
//   spec tune=static ─────────────────────► static_profile()
//   spec tune=auto ─► QOKIT_TUNE=off? ─yes─► static_profile()
//                                      no ─► heuristic (probed once)
#pragma once

#include "pipeline/geometry.hpp"
#include "tune/machine_probe.hpp"

namespace qokit::tune {

/// Memory-placement policy for large state allocations.
enum class NumaPolicy {
  None,        ///< single node (or unknown): leave placement to the OS
  FirstTouch,  ///< parallel first-touch so pages land on the threads'
               ///< nodes in the same static partition the sweeps use
};

/// Where a resolved profile's values came from (exported as the
/// qokit_tune_source gauge in the enum's numeric order).
enum class ProfileSource {
  Static = 0,     ///< pinned pre-tune defaults (the CI oracle)
  Heuristic = 1,  ///< closed-form formulas over the probe
};

struct TuneProfile {
  pipeline::Geometry geometry = pipeline::Geometry::defaults();
  /// Threads a Parallel region should use; 0 = leave the runtime alone
  /// (the static profile never overrides the user's OMP settings).
  int threads = 0;
  NumaPolicy numa = NumaPolicy::None;
  ProfileSource source = ProfileSource::Static;

  friend bool operator==(const TuneProfile&, const TuneProfile&) = default;
};

/// The pre-tune static configuration: Geometry::defaults(), no thread or
/// NUMA overrides. What `QOKIT_TUNE=off` pins as the CI oracle.
TuneProfile static_profile();

/// Closed-form geometry from the cache hierarchy. Pure — same topology,
/// same profile — and reproduces Geometry::defaults() on the 32 KiB-L1d /
/// 2 MiB-L2 class of machine the defaults were hand-tuned for:
///   tile:  3/4 of L2 over the 24 B/amp fused sweep (amp + streamed cost)
///   chunk: half of L1d over 16 B/amp
///   group: rows such that 2^g chunks fill half of L2
///   threads: one per physical core; first-touch iff > 1 NUMA node
TuneProfile heuristic_profile(const MachineTopology& topo);

/// How a simulator asks for tuning (the SimulatorSpec `tune=` token).
enum class TuneMode {
  Auto,    ///< heuristic, unless QOKIT_TUNE=off pins the static oracle
  Static,  ///< pinned static_profile(); probes nothing ("static"/"off")
};

/// Resolve the effective profile for a new simulator. The environment is
/// read on every call (so tests that flip QOKIT_TUNE observe the change);
/// the heuristic is computed once per process, when first resolved, and
/// its process-wide side effects are applied then: thread count (only
/// when OMP_NUM_THREADS is unset), first-touch enablement, obs gauges.
TuneProfile resolve_profile(TuneMode mode);

}  // namespace qokit::tune
