#include "fur/symmetry.hpp"

#include <cmath>
#include <stdexcept>

#include "common/bitops.hpp"
#include "diagonal/ops.hpp"
#include "fur/su2.hpp"

namespace qokit {
namespace {

/// Butterfly on orbits {x, fl(x)} of the top-qubit mixer pass, where
/// fl(x) = ~x over the low n-1 bits. Identical arithmetic to kern::rx,
/// different index pairing; each orbit visited once via x < fl(x).
void rx_top_qubit_half(cdouble* h, int n_minus_1, double c, double s,
                       Exec exec) {
  const std::uint64_t dim = dim_of(n_minus_1);
  const std::uint64_t low_mask = dim - 1;
  parallel_for(exec, 0, static_cast<std::int64_t>(dim), [=](std::int64_t xi) {
    const std::uint64_t x = static_cast<std::uint64_t>(xi);
    const std::uint64_t fx = ~x & low_mask;
    if (x >= fx) return;  // each orbit handled by its smaller member
    const cdouble a = h[x];
    const cdouble b = h[fx];
    h[x] = c * a - cdouble(0, s) * b;
    h[fx] = cdouble(0, -s) * a + c * b;
  });
}

}  // namespace

bool is_flip_symmetric(const TermList& terms) {
  for (const Term& t : terms)
    if (t.mask != 0 && t.order() % 2 != 0) return false;
  return true;
}

SymmetricFurSimulator::SymmetricFurSimulator(const TermList& terms, Exec exec)
    : n_(terms.num_qubits()), exec_(exec) {
  if (!is_flip_symmetric(terms))
    throw std::invalid_argument(
        "SymmetricFurSimulator: cost function is not spin-flip symmetric");
  if (n_ < 2)
    throw std::invalid_argument("SymmetricFurSimulator: need n >= 2");
  // Representative half only: bit for bit the full diagonal's first half.
  aligned_vector<double> values(dim_of(n_ - 1));
  fill_cost_diagonal(terms, 0, values.size(), values.data(), exec);
  half_diag_ = CostDiagonal::from_values(n_ - 1, std::move(values));
}

StateVector SymmetricFurSimulator::simulate_qaoa(
    std::span<const double> gammas, std::span<const double> betas) const {
  if (gammas.size() != betas.size())
    throw std::invalid_argument("simulate_qaoa: schedule length mismatch");
  // Half of |+>^n: every representative amplitude is 2^{-n/2}; the half
  // vector's norm is 1/2 by construction.
  StateVector h(n_ - 1);
  const double amp = 1.0 / std::sqrt(static_cast<double>(dim_of(n_)));
  for (std::uint64_t x = 0; x < h.size(); ++x) h[x] = cdouble(amp, 0.0);

  for (std::size_t l = 0; l < gammas.size(); ++l) {
    apply_phase(h, half_diag_, gammas[l], exec_);
    const double c = std::cos(betas[l]);
    const double s = std::sin(betas[l]);
    for (int q = 0; q < n_ - 1; ++q)
      kern::rx(h.data(), h.size(), q, c, s, exec_);
    rx_top_qubit_half(h.data(), n_ - 1, c, s, exec_);
  }
  return h;
}

double SymmetricFurSimulator::get_expectation(const StateVector& half) const {
  return 2.0 * expectation(half, half_diag_, exec_);
}

double SymmetricFurSimulator::get_overlap(const StateVector& half) const {
  return 2.0 * overlap_ground(half, half_diag_, 1e-9, exec_);
}

StateVector SymmetricFurSimulator::expand(const StateVector& half) const {
  StateVector full(n_);
  const std::uint64_t low_mask = dim_of(n_ - 1) - 1;
  for (std::uint64_t x = 0; x < full.size(); ++x) {
    const bool top = test_bit(x, n_ - 1);
    const std::uint64_t rep = top ? (~x & low_mask) : x;
    full[x] = half[rep];
  }
  return full;
}

}  // namespace qokit
