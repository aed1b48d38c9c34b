// The QAOA fast-simulator class hierarchy (paper Sec. IV).
//
// Mirrors QOKit's Python API: an abstract base
// (qokit.fur.QAOAFastSimulatorBase) with simulate_qaoa plus get_-prefixed
// output methods, concrete simulators selected through choose_simulator
// family factories. Algorithm 3 (precompute once; per layer one elementwise
// phase multiply and one mixer transform) is the heart of simulate_qaoa.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "diagonal/cost_diagonal.hpp"
#include "diagonal/diagonal_u16.hpp"
#include "fur/mixers.hpp"
#include "pipeline/layer_exec.hpp"
#include "pipeline/layer_plan.hpp"
#include "statevector/state.hpp"
#include "terms/term.hpp"

namespace qokit {

/// Construction-time options for FurQaoaSimulator.
struct FurConfig {
  Exec exec = Exec::Parallel;       ///< serial ("python") vs threaded ("c")
  MixerType mixer = MixerType::X;   ///< which mixing operator
  MixerBackend backend = MixerBackend::Fused;  ///< X-mixer implementation
  bool use_u16 = false;             ///< store/apply the uint16 diagonal
  int initial_weight = -1;          ///< Dicke weight for xy mixers; -1 = n/2
  /// Cache-blocked fused layer execution (src/pipeline/): on by default
  /// for X-mixer layers, bit-identical to the unfused loop, which remains
  /// selectable as the oracle via mode = Off or QOKIT_PIPELINE=off.
  pipeline::PipelineOptions pipeline{};
  /// Amplitude scalar width. F32 halves state memory and DRAM traffic per
  /// sweep; the diagonal, all angles, and every reduction stay double (see
  /// DESIGN.md "Mixed precision"). X mixer only — the ctor rejects F32
  /// with xy mixers.
  Precision prec = Precision::F64;
};

/// Abstract QAOA simulator: owns the precomputed cost diagonal and turns
/// (gamma, beta) parameter vectors into evolved states and objectives.
class QaoaFastSimulatorBase {
 public:
  virtual ~QaoaFastSimulatorBase() = default;

  virtual int num_qubits() const = 0;

  /// Amplitude precision this simulator evolves states at. The base
  /// default is F64 so existing backends (gatesim, tn) need no change;
  /// callers sizing scratch or cache entries (batch, serve) read this
  /// instead of assuming 16-byte amplitudes.
  virtual Precision precision() const { return Precision::F64; }

  /// Default initial state: |+>^n for the X mixer, the in-sector Dicke
  /// state for xy mixers; 2^n amplitudes at precision(). The base returns
  /// start_state(), which is this state on every backend except a
  /// half-space FurQaoaSimulator.
  virtual StateVector initial_state() const { return start_state(); }

  /// Write the state every evaluation evolves from into `slot`, in place:
  /// whatever `slot` held (any size, precision or storage) is overwritten,
  /// and its buffer is reused whenever its capacity suffices, so a batch
  /// slot refills without an allocation or a copy. That state is
  /// initial_state(), or on a half-space simulator the same state in half
  /// storage (StateVector::is_half), which only that simulator's
  /// simulate_qaoa_from / simulate_qaoa_expectation / get_expectation /
  /// get_overlap accept. Expand it (StateVector::expand_into) for anything
  /// that wants the 2^n state.
  virtual void start_state_into(StateVector& slot) const = 0;

  /// start_state_into() on a fresh state.
  StateVector start_state() const {
    StateVector state;
    start_state_into(state);
    return state;
  }

  /// Whether start_state() is half storage, and why not when it is not.
  virtual bool half_space() const { return false; }
  virtual std::string_view half_space_reason() const {
    return "this backend evolves the full 2^n state";
  }

  /// Run Algorithm 3 from the default initial state. gammas and betas must
  /// have equal length p. The returned StateVector is the `result` object
  /// passed to the get_ methods.
  virtual StateVector simulate_qaoa(std::span<const double> gammas,
                                    std::span<const double> betas) const;

  /// Run Algorithm 3 from a caller-provided state (consumed in place).
  virtual StateVector simulate_qaoa_from(StateVector state,
                                         std::span<const double> gammas,
                                         std::span<const double> betas)
      const = 0;

  /// <result|C|result> using the precomputed diagonal.
  virtual double get_expectation(const StateVector& result) const = 0;

  /// Evolve `state` through the schedule (in place, like
  /// simulate_qaoa_from) and return <C> of the result in one call. The
  /// base implementation is the two-pass path: simulate, then
  /// get_expectation. FurQaoaSimulator overrides it to fuse the
  /// reduction into the final layer's last pipeline pass, skipping one
  /// full read of the state — bit-identical to the two-pass path by the
  /// kReduceBlock alignment argument (pipeline/layer_exec.hpp). The
  /// evolved state is left in `state` either way, so overlap/sampling
  /// can still consume it.
  virtual double simulate_qaoa_expectation(
      StateVector& state, std::span<const double> gammas,
      std::span<const double> betas) const;

  /// Expectation against a caller-supplied cost vector (QOKit's optional
  /// `costs` argument).
  double get_expectation(const StateVector& result,
                         const CostDiagonal& costs) const;

  /// Probability mass on minimum-cost basis states. If restrict_weight >= 0
  /// the minimum is taken within that Hamming-weight sector (relevant for
  /// constrained problems run under xy mixers).
  virtual double get_overlap(const StateVector& result,
                             int restrict_weight = -1) const = 0;

  /// Overlap against a caller-supplied cost vector (QOKit's optional
  /// `costs` argument to get_overlap).
  double get_overlap(const StateVector& result,
                     const CostDiagonal& costs) const;

  /// The evolved state itself (API parity with QOKit's get_statevector).
  const StateVector& get_statevector(const StateVector& result) const {
    return result;
  }

  /// |amp|^2 for every basis state.
  std::vector<double> get_probabilities(const StateVector& result) const {
    return result.probabilities();
  }

  /// The precomputed diagonal (QOKit's get_cost_diagonal).
  virtual const CostDiagonal& get_cost_diagonal() const = 0;

  /// True when one simulate_qaoa call already employs the machine's
  /// parallelism by itself (e.g. the virtual-rank distributed simulator
  /// spawns a thread per rank), so a batch engine should evaluate
  /// schedules sequentially rather than thread across them on top.
  virtual bool prefers_sequential_batches() const { return false; }
};

/// CPU fast simulator implementing Algorithm 3 over the fur kernels.
///
/// Half space: when the terms are flip-symmetric (is_flip_symmetric), the
/// mixer is X on the Fused backend, the pipeline is on and n >= 12,
/// start_state() is |+>^n in half storage and every
/// evaluation from it evolves the 2^(n-1) lower amplitudes on
/// half_plan(), bit for bit the full path's (DESIGN.md "Half-space
/// evolution"). Full states -- initial_state(), a caller's state -- still
/// run the full path, and layer_plan() and the diagonals keep their 2^n
/// shape.
class FurQaoaSimulator final : public QaoaFastSimulatorBase {
 public:
  /// Precompute the diagonal from polynomial terms. Throws
  /// std::invalid_argument above kMaxQubits before allocating anything.
  explicit FurQaoaSimulator(const TermList& terms, FurConfig cfg = {});

  /// Adopt an existing cost vector (Listing 1's `costs` input path). Runs
  /// the full space: the symmetry of an arbitrary vector is not known.
  FurQaoaSimulator(CostDiagonal costs, FurConfig cfg = {});

  int num_qubits() const override { return diag_.num_qubits(); }
  Precision precision() const override { return cfg_.prec; }
  StateVector initial_state() const override;
  void start_state_into(StateVector& slot) const override;
  bool half_space() const override { return half_plan_.active(); }
  std::string_view half_space_reason() const override {
    return half_reason_;
  }
  StateVector simulate_qaoa_from(StateVector state,
                                 std::span<const double> gammas,
                                 std::span<const double> betas) const override;
  using QaoaFastSimulatorBase::get_expectation;  // keep the costs overloads
  using QaoaFastSimulatorBase::get_overlap;
  double get_expectation(const StateVector& result) const override;
  double simulate_qaoa_expectation(StateVector& state,
                                   std::span<const double> gammas,
                                   std::span<const double> betas)
      const override;
  double get_overlap(const StateVector& result,
                     int restrict_weight = -1) const override;
  const CostDiagonal& get_cost_diagonal() const override { return diag_; }

  const FurConfig& config() const { return cfg_; }

  /// The compressed diagonal (valid only when cfg.use_u16).
  const DiagonalU16& diagonal_u16() const;

  /// The fused layer plan built at construction (once per simulator, and
  /// therefore once per session/batch — every schedule reuses it). When
  /// inactive — pipeline disabled, or an xy mixer — simulate_qaoa_from
  /// runs the unfused loop and fallback_reason() says why.
  const pipeline::LayerPlan& layer_plan() const { return plan_; }

  /// The half-space plan over 2^(n-1) amplitudes, ending in the mirror
  /// pass. Active iff half_space(); half_space_reason() says why not.
  const pipeline::LayerPlan& half_plan() const { return half_plan_; }

 private:
  /// Decide the half space: `veto` (a reason the constructor found) keeps
  /// the full space; otherwise LayerPlan::build_half does.
  void plan_half_space(std::string veto);
  const pipeline::LayerPlan& plan_for(const StateVector& state) const {
    return state.is_half() ? half_plan_ : plan_;
  }
  /// The start state in full or half storage, written into `slot`.
  void write_start(StateVector& slot, bool half) const;
  pipeline::ExpectationCtx reduce_ctx() const;
  void check_state(const StateVector& state) const;

  FurConfig cfg_;
  CostDiagonal diag_;
  DiagonalU16 diag16_;  ///< populated iff cfg_.use_u16
  pipeline::LayerPlan plan_;
  pipeline::LayerPlan half_plan_;
  std::string half_reason_;  ///< empty iff half_space()
};

/// Factory mirroring qokit.fur.choose_simulator: a thin wrapper over
/// make_simulator(terms, SimulatorSpec::parse(name)) — see api/spec.hpp
/// for the full grammar. Recognized base names: "auto" (threaded
/// fused-kernel, the default), "serial", "threaded", "u16", "fwht",
/// "gatesim", and the distributed spellings "dist[:K]".
/// Unknown names throw std::invalid_argument naming the offending token.
std::unique_ptr<QaoaFastSimulatorBase> choose_simulator(
    const TermList& terms, std::string_view name = "auto");

/// Ring-XY-mixer variant of choose_simulator (same grammar; the mixer and
/// Dicke weight are forced onto the parsed spec).
std::unique_ptr<QaoaFastSimulatorBase> choose_simulator_xyring(
    const TermList& terms, std::string_view name = "auto",
    int initial_weight = -1);

/// Complete-graph-XY-mixer variant of choose_simulator.
std::unique_ptr<QaoaFastSimulatorBase> choose_simulator_xycomplete(
    const TermList& terms, std::string_view name = "auto",
    int initial_weight = -1);

/// Objective after each of the p layers (a depth trace): entry l is
/// <C> of the state after applying layers 1..l+1. Useful for studying how
/// energy descends along a schedule without re-simulating prefixes.
std::vector<double> per_layer_expectations(const QaoaFastSimulatorBase& sim,
                                           std::span<const double> gammas,
                                           std::span<const double> betas);

/// Multi-angle QAOA evolution (ma-QAOA): p phase angles and p*n per-qubit
/// mixer angles, laid out layer-major (betas[l*n + q] drives qubit q in
/// layer l). Reuses the simulator's precomputed diagonal; X mixer only.
StateVector simulate_ma_qaoa(const FurQaoaSimulator& sim,
                             std::span<const double> gammas,
                             std::span<const double> betas);

}  // namespace qokit
