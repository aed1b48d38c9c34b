#include "tune/profile.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "common/aligned.hpp"
#include "common/parallel.hpp"
#include "obs/obs.hpp"

namespace qokit::tune {

namespace {

int floor_log2_u64(std::uint64_t v) {
  int r = 0;
  while (v > 1) {
    v >>= 1;
    ++r;
  }
  return r;
}

}  // namespace

TuneProfile static_profile() {
  TuneProfile p;
  p.geometry = pipeline::Geometry::defaults();
  p.threads = 0;
  p.numa = NumaPolicy::None;
  p.source = ProfileSource::Static;
  return p;
}

TuneProfile heuristic_profile(const MachineTopology& topo) {
  TuneProfile p;
  // Tile: the fused phase+mixer sweep streams 16 B of amplitude plus 8 B
  // of cost diagonal per amplitude; budget 3/4 of L2 so the tile survives
  // the butterfly re-walks.
  const std::uint64_t tile_amps =
      std::max<std::uint64_t>(1, topo.l2_bytes * 3 / 4 / 24);
  p.geometry.tile_log2 = std::clamp(floor_log2_u64(tile_amps), 12, 20);
  // Chunk: one row's contiguous gather; half of L1d at 16 B/amp keeps the
  // chunk resident across the group's g butterfly passes.
  const std::uint64_t chunk_amps =
      std::max<std::uint64_t>(1, topo.l1d_bytes / 2 / 16);
  p.geometry.chunk_log2 = std::clamp(floor_log2_u64(chunk_amps), 8, 13);
  // Group: 2^g rows x one chunk each should fill half of L2.
  const std::uint64_t chunk_bytes =
      std::uint64_t{16} << p.geometry.chunk_log2;
  const std::uint64_t rows =
      std::max<std::uint64_t>(1, topo.l2_bytes / 2 / chunk_bytes);
  p.geometry.group_qubits = std::clamp(floor_log2_u64(rows), 2, 8);
  p.threads = std::max(1, topo.physical_cores);
  p.numa = topo.numa_nodes > 1 ? NumaPolicy::FirstTouch : NumaPolicy::None;
  p.source = ProfileSource::Heuristic;
  return p;
}

namespace {

/// "0"/"false" included for the same YAML boolean-coercion reason as
/// QOKIT_PIPELINE (see pipeline_disabled_by_env).
bool static_by_env() {
  const char* v = std::getenv("QOKIT_TUNE");
  if (v == nullptr) return false;
  const std::string s(v);
  return s == "off" || s == "OFF" || s == "static" || s == "0" ||
         s == "false";
}

void export_gauges(const TuneProfile& profile, const MachineTopology& topo) {
  static obs::Gauge g_tile = obs::gauge("qokit_tune_tile_log2");
  static obs::Gauge g_group = obs::gauge("qokit_tune_group_qubits");
  static obs::Gauge g_chunk = obs::gauge("qokit_tune_chunk_log2");
  static obs::Gauge g_threads = obs::gauge("qokit_tune_threads");
  static obs::Gauge g_source = obs::gauge("qokit_tune_source");
  static obs::Gauge g_l2 = obs::gauge("qokit_probe_l2_bytes");
  static obs::Gauge g_l3 = obs::gauge("qokit_probe_l3_bytes");
  static obs::Gauge g_numa = obs::gauge("qokit_probe_numa_nodes");
  static obs::Gauge g_cores = obs::gauge("qokit_probe_physical_cores");
  g_tile.set(profile.geometry.tile_log2);
  g_group.set(profile.geometry.group_qubits);
  g_chunk.set(profile.geometry.chunk_log2);
  g_threads.set(profile.threads);
  g_source.set(static_cast<double>(profile.source));
  g_l2.set(static_cast<double>(topo.l2_bytes));
  g_l3.set(static_cast<double>(topo.l3_bytes));
  g_numa.set(topo.numa_nodes);
  g_cores.set(topo.physical_cores);
}

/// Process-wide side effects of adopting a profile. Thread count is
/// applied only when the user did not set OMP_NUM_THREADS themselves
/// (explicit user configuration always wins); first-touch is sticky once
/// any profile turns it on.
void apply_profile(const TuneProfile& profile) {
#if defined(_OPENMP)
  if (profile.threads > 0 && std::getenv("OMP_NUM_THREADS") == nullptr)
    omp_set_num_threads(profile.threads);
#endif
  if (profile.numa == NumaPolicy::FirstTouch) set_first_touch_enabled(true);
}

/// The machine is probed, and the heuristic applied, once per process
/// (thread-safe static initialization).
const TuneProfile& process_heuristic() {
  static const TuneProfile profile = [] {
    const MachineTopology topo = probe_machine();
    const TuneProfile p = heuristic_profile(topo);
    apply_profile(p);
    export_gauges(p, topo);
    return p;
  }();
  return profile;
}

}  // namespace

TuneProfile resolve_profile(TuneMode mode) {
  // The oracle path: no probe, no runtime mutation — exactly the pre-tune
  // behavior.
  if (mode == TuneMode::Static || static_by_env()) return static_profile();
  return process_heuristic();
}

}  // namespace qokit::tune
