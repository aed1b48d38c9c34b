// The QAOA objective <gamma beta|C|gamma beta> as an optimizable functor.
//
// Wraps any QaoaFastSimulatorBase: the simulator owns the precomputed
// diagonal, so every call costs p mixer transforms + p phase multiplies,
// with the inner product fused into the last pass where the backend can
// (simulate_qaoa_expectation) -- the loop of paper Fig. 1 that the
// optimizer drives. Both functors reuse scratch statevectors across calls,
// so steady-state evaluation performs zero statevector allocations.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "batch/batch_eval.hpp"
#include "fur/simulator.hpp"

namespace qokit {

/// Callable objective with evaluation counting. Not safe for concurrent
/// operator() calls on one instance (each instance owns one reused
/// scratch state, like BatchEvaluator's pool); distinct instances over
/// the same simulator are independent.
class QaoaObjective {
 public:
  /// `sim` must outlive the objective. `p` fixes the parameter layout:
  /// x = (gamma_1..gamma_p, beta_1..beta_p).
  QaoaObjective(const QaoaFastSimulatorBase& sim, int p);

  /// Objective value at packed parameters x (size 2p).
  double operator()(const std::vector<double>& x) const;

  /// Number of simulator invocations so far.
  int evaluations() const { return evals_; }

  /// Reset the evaluation counter.
  void reset_count() { evals_ = 0; }

  int p() const { return p_; }

 private:
  const QaoaFastSimulatorBase* sim_;
  int p_;
  mutable int evals_ = 0;
  /// Reused across calls; the simulator's start_state_into refills it.
  mutable StateVector scratch_;
};

/// Population objective for the batched optimizers: evaluates a set of
/// packed points through one submission to a borrowed BatchEvaluator,
/// sharing its precomputed diagonal and per-thread scratch pool across the
/// whole optimization run. Matches the BatchObjectiveFn shape of
/// nelder_mead_batched / spsa_batched.
class QaoaBatchObjective {
 public:
  /// `evaluator` must outlive the objective (and, like any evaluator, is
  /// single-caller). `p` fixes the parameter layout.
  QaoaBatchObjective(const BatchEvaluator& evaluator, int p);

  /// Objective values of a population of packed points (each size 2p),
  /// in submission order.
  std::vector<double> operator()(
      const std::vector<std::vector<double>>& points) const;

  /// Number of simulator invocations (points evaluated) so far.
  int evaluations() const { return evals_; }

  /// Number of batches submitted so far.
  int batches() const { return batches_; }

  void reset_count() { evals_ = batches_ = 0; }

  int p() const { return p_; }

 private:
  const BatchEvaluator* evaluator_;
  int p_;
  mutable int evals_ = 0;
  mutable int batches_ = 0;
};

}  // namespace qokit
