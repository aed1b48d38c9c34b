#include "optimize/objective.hpp"

#include <cmath>
#include <span>
#include <stdexcept>
#include <string>

namespace qokit {

QaoaObjective::QaoaObjective(const QaoaFastSimulatorBase& sim, int p)
    : sim_(&sim), p_(p) {
  if (p < 1) throw std::invalid_argument("QaoaObjective: p must be >= 1");
}

double QaoaObjective::operator()(const std::vector<double>& x) const {
  if (static_cast<int>(x.size()) != 2 * p_)
    throw std::invalid_argument("QaoaObjective: expected 2p parameters");
  // The batch step's check (batch/batch_eval.cpp), for the one schedule:
  // a NaN or inf angle would come back as a silent NaN value.
  for (int j = 0; j < 2 * p_; ++j)
    if (!std::isfinite(x[j]))
      throw std::invalid_argument(
          std::string("QaoaObjective: ") + (j < p_ ? "gamma[" : "beta[") +
          std::to_string(j % p_) + "] is not finite");
  ++evals_;
  const std::span<const double> gammas(x.data(), p_);
  const std::span<const double> betas(x.data() + p_, p_);
  // Write the start state into the scratch (reusing its buffer) and
  // evolve it in place: after the first call no statevector is allocated,
  // where simulate_qaoa would allocate a fresh initial state per
  // evaluation.
  sim_->start_state_into(scratch_);
  return sim_->simulate_qaoa_expectation(scratch_, gammas, betas);
}

QaoaBatchObjective::QaoaBatchObjective(const BatchEvaluator& evaluator, int p)
    : evaluator_(&evaluator), p_(p) {
  if (p < 1) throw std::invalid_argument("QaoaBatchObjective: p must be >= 1");
}

std::vector<double> QaoaBatchObjective::operator()(
    const std::vector<std::vector<double>>& points) const {
  for (const std::vector<double>& x : points)
    if (static_cast<int>(x.size()) != 2 * p_)
      throw std::invalid_argument(
          "QaoaBatchObjective: expected 2p parameters");
  evals_ += static_cast<int>(points.size());
  ++batches_;
  return evaluator_->expectations_packed(points);
}

}  // namespace qokit
