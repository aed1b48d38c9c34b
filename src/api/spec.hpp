// Typed simulator configuration for the public API.
//
// The one-line methods historically selected backends via an untyped
// string that every entry point re-parsed (and the distributed spellings
// were recognized by only some of them). SimulatorSpec is the single
// typed description of "which simulator, configured how": every string
// spelling parses into it exactly once, every factory consumes it, and
// to_string() renders the canonical spelling back, so a spec can be
// logged, stored, and compared for equality. choose_simulator and
// friends remain as thin wrappers over make_simulator(terms, spec).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/cpu_features.hpp"
#include "fur/mixers.hpp"
#include "fur/simulator.hpp"
#include "pipeline/layer_plan.hpp"
#include "terms/term.hpp"
#include "tune/profile.hpp"

namespace qokit {

/// Which simulator implementation a spec selects.
enum class Backend {
  Auto,      ///< the default: threaded fused-kernel FurQaoaSimulator
  Serial,    ///< single-threaded FurQaoaSimulator (portable reference)
  Threaded,  ///< explicit OpenMP FurQaoaSimulator
  U16,       ///< FurQaoaSimulator over the uint16-compressed diagonal
  Fwht,      ///< FurQaoaSimulator with the two-transform mixer (X only)
  Gatesim,   ///< gate-at-a-time evolution (diagonal-scored; baseline)
  Dist,      ///< DistributedFurSimulator over `ranks` virtual ranks
};

/// Canonical backend token ("auto", "serial", ..., "dist").
std::string_view to_string(Backend backend);

/// Which SIMD kernel family a session should pin (process-global; see
/// SimulatorSpec::simd).
enum class SimdChoice {
  Auto,    ///< whatever active_simd_level() resolves (CPUID + env): the
           ///< highest supported level, AVX-512 where present
  Scalar,  ///< force the portable scalar family
  Avx2,    ///< pin AVX2, also on an AVX-512 host (same bits, 4 lanes);
           ///< clamped to scalar when unavailable
};

/// Amplitude precision a spec requests. Auto defers to the QOKIT_PREC
/// environment variable ("f32" selects float amplitudes when the resolved
/// backend supports them; anything else means f64) and otherwise means
/// f64 — so default spec spellings, cache keys, and results are untouched
/// by this knob. Explicit F32 on an unsupported combination (gatesim, xy
/// mixers) throws from make_simulator instead of silently widening.
enum class Prec {
  Auto,  ///< QOKIT_PREC env, else f64; downgrades silently if unsupported
  F32,   ///< float amplitudes (X mixer fur/dist backends only)
  F64,   ///< double amplitudes (the pre-existing behavior)
};

/// Typed construction-time configuration for every simulator backend.
///
/// String grammar (SimulatorSpec::parse):
///
///   spec    := backend (":" option)*
///   backend := "auto" | "serial" | "threaded" | "u16" | "fwht"
///            | "gatesim" | "dist" [":" K]
///   option  := "mixer="    ("x" | "xyring" | "xycomplete")
///            | "exec="     ("serial" | "parallel")
///            | "ranks="    <int>                (dist only)
///            | "weight="   <int>                (Dicke weight, xy mixers)
///            | "simd="     ("auto" | "scalar" | "avx2")  (auto = the
///                                              highest level, avx512
///                                              where CPUID has it)
///            | "seed="     <uint64>             (sampling seed)
///            | "pipeline=" ("auto" | "on" | "off")
///            | "obs="      ("on" | "off")
///            | "tune="     ("auto" | "static" | "off")
///            | "prec="     ("auto" | "f32" | "f64")
///
/// Any other token throws std::invalid_argument naming the offending
/// token -- no spelling silently falls back to a default simulator.
/// parse() validates tokens only; semantic constraints (e.g. fwht or
/// dist with an XY mixer) are enforced by make_simulator.
struct SimulatorSpec {
  Backend backend = Backend::Auto;
  MixerType mixer = MixerType::X;
  /// Kernel execution policy. parse() defaults this per backend (Serial
  /// for "serial", Parallel otherwise); ignored by Backend::Dist, whose
  /// rank threads are the parallelism.
  Exec exec = Exec::Parallel;
  int ranks = 2;  ///< virtual rank count (Backend::Dist only)
  int initial_weight = -1;  ///< Dicke weight for xy mixers; -1 = n/2
  /// SIMD kernel-family override. Applied by ProblemSession at
  /// construction via force_simd_level -- PROCESS-GLOBAL and sticky,
  /// mirroring the QOKIT_SIMD environment override: it pins the dispatch
  /// level for every simulator in the process from that point on (Auto
  /// never un-pins), so use it to pin a whole run (e.g. reproducibility),
  /// not to mix kernel families between live sessions. make_simulator
  /// ignores it.
  SimdChoice simd = SimdChoice::Auto;
  std::uint64_t sample_seed = 1;  ///< base seed for drawn bitstrings
  /// Cache-blocked fused layer execution (src/pipeline/). Auto follows
  /// QOKIT_PIPELINE (on unless the env says off); Off pins the unfused
  /// oracle path, bit-identical by contract. Ignored by Backend::Gatesim
  /// (gate-at-a-time evolution has no layer plan).
  pipeline::PipelineMode pipeline = pipeline::PipelineMode::Auto;
  /// Runtime observability (src/obs/). obs=on turns the process-global
  /// instrumentation flag on when the session is built (same switch as the
  /// QOKIT_OBS environment variable); the default leaves whatever the
  /// environment chose untouched. Like simd=, this is process-global and
  /// sticky -- obs=on is never un-set by a later default-spec session.
  bool obs = false;
  /// Machine-adaptive execution (src/tune/). make_simulator resolves the
  /// effective TuneProfile (spec value first, then QOKIT_TUNE=off for
  /// Auto) and injects its pipeline Geometry into the simulator;
  /// thread-count and NUMA side effects are process-global, applied at
  /// resolution. "tune=off" parses as Static (and canonicalizes to
  /// "tune=static"). Bit-identical across both choices by contract.
  tune::TuneMode tune = tune::TuneMode::Auto;
  /// Amplitude scalar width (see enum Prec). Auto = QOKIT_PREC env, else
  /// f64; to_string() elides Auto so default spellings are unchanged.
  Prec prec = Prec::Auto;

  /// Parse a spelling per the grammar above. Throws std::invalid_argument
  /// naming the offending token on anything unrecognized.
  static SimulatorSpec parse(std::string_view name);

  /// Canonical spelling; parse(to_string()) reproduces the spec exactly
  /// (including every non-default field).
  std::string to_string() const;

  friend bool operator==(const SimulatorSpec&, const SimulatorSpec&) =
      default;
};

/// Build the simulator a spec describes. The single factory behind
/// choose_simulator / choose_simulator_xyring / choose_simulator_xycomplete
/// / choose_simulator_distributed and the session API. Throws
/// std::invalid_argument on semantically invalid combinations (fwht or
/// dist with a non-X mixer).
std::unique_ptr<QaoaFastSimulatorBase> make_simulator(
    const TermList& terms, const SimulatorSpec& spec);

}  // namespace qokit
