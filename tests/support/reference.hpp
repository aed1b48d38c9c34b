// Dense, gather-based reference implementations used to validate every
// simulator backend. Deliberately written in a different style from the
// production kernels (out-of-place, index-gather, no bit-pair tricks) so a
// shared bug is unlikely.
#pragma once

#include <array>
#include <cmath>
#include <complex>
#include <cstdint>
#include <vector>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "statevector/state.hpp"
#include "terms/term.hpp"

namespace qokit::testing {

using Vec = std::vector<cdouble>;

inline Vec to_vec(const StateVector& sv) {
  return Vec(sv.data(), sv.data() + sv.size());
}

inline StateVector to_state(int n, const Vec& v) {
  StateVector sv(n);
  for (std::uint64_t i = 0; i < sv.size(); ++i) sv[i] = v[i];
  return sv;
}

inline double max_diff(const Vec& a, const Vec& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

/// Out-of-place 1-qubit gate: row-major 2x2 m, y = (I x..x m x..x I) x.
inline Vec ref_apply_1q(const Vec& v, int q, const std::array<cdouble, 4>& m) {
  Vec out(v.size());
  for (std::uint64_t x = 0; x < v.size(); ++x) {
    const int b = test_bit(x, q) ? 1 : 0;
    const std::uint64_t x0 = x & ~(1ull << q);
    const std::uint64_t x1 = x0 | (1ull << q);
    out[x] = m[b * 2 + 0] * v[x0] + m[b * 2 + 1] * v[x1];
  }
  return out;
}

/// Out-of-place 2-qubit gate; matrix basis index = b_q0 + 2*b_q1.
inline Vec ref_apply_2q(const Vec& v, int q0, int q1,
                        const std::array<cdouble, 16>& m) {
  Vec out(v.size());
  for (std::uint64_t x = 0; x < v.size(); ++x) {
    const int row = (test_bit(x, q0) ? 1 : 0) + (test_bit(x, q1) ? 2 : 0);
    const std::uint64_t base = x & ~((1ull << q0) | (1ull << q1));
    out[x] = cdouble(0.0);
    for (int col = 0; col < 4; ++col) {
      std::uint64_t src = base;
      if (col & 1) src |= 1ull << q0;
      if (col & 2) src |= 1ull << q1;
      out[x] += m[row * 4 + col] * v[src];
    }
  }
  return out;
}

inline std::array<cdouble, 4> ref_matrix_rx(double theta) {
  const double c = std::cos(theta / 2), s = std::sin(theta / 2);
  return {cdouble(c), cdouble(0, -s), cdouble(0, -s), cdouble(c)};
}

inline std::array<cdouble, 4> ref_matrix_h() {
  const double r = 1.0 / std::sqrt(2.0);
  return {cdouble(r), cdouble(r), cdouble(r), cdouble(-r)};
}

/// Dense 4x4 of e^{-i beta (XX+YY)/2} (basis 00,01,10,11).
inline std::array<cdouble, 16> ref_matrix_xy(double beta) {
  const double c = std::cos(beta), s = std::sin(beta);
  std::array<cdouble, 16> m{};
  m[0] = cdouble(1.0);
  m[15] = cdouble(1.0);
  m[5] = cdouble(c);
  m[6] = cdouble(0, -s);
  m[9] = cdouble(0, -s);
  m[10] = cdouble(c);
  return m;
}

/// Phase operator from raw terms: amp_x *= e^{-i gamma f(x)}.
inline Vec ref_apply_phase(const Vec& v, const TermList& terms, double gamma) {
  Vec out(v.size());
  for (std::uint64_t x = 0; x < v.size(); ++x) {
    const double ang = -gamma * terms.evaluate(x);
    out[x] = v[x] * cdouble(std::cos(ang), std::sin(ang));
  }
  return out;
}

/// Transverse-field mixer: RX(2 beta) on every qubit (factors commute).
inline Vec ref_apply_mixer_x(Vec v, int n, double beta) {
  const auto m = ref_matrix_rx(2.0 * beta);
  for (int q = 0; q < n; ++q) v = ref_apply_1q(v, q, m);
  return v;
}

/// Ring-XY mixer in the library's edge order.
inline Vec ref_apply_mixer_xy_ring(Vec v, int n, double beta) {
  const auto m = ref_matrix_xy(beta);
  for (int i = 0; i < n; ++i) v = ref_apply_2q(v, i, (i + 1) % n, m);
  return v;
}

/// Complete-graph XY mixer in the library's edge order.
inline Vec ref_apply_mixer_xy_complete(Vec v, int n, double beta) {
  const auto m = ref_matrix_xy(beta);
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j) v = ref_apply_2q(v, i, j, m);
  return v;
}

/// Full reference QAOA evolution from |+>^n with the X mixer.
inline Vec ref_qaoa_x(const TermList& terms, const std::vector<double>& gammas,
                      const std::vector<double>& betas) {
  const int n = terms.num_qubits();
  Vec v(dim_of(n), cdouble(1.0 / std::sqrt(double(dim_of(n))), 0.0));
  for (std::size_t l = 0; l < gammas.size(); ++l) {
    v = ref_apply_phase(v, terms, gammas[l]);
    v = ref_apply_mixer_x(std::move(v), n, betas[l]);
  }
  return v;
}

/// Reference expectation sum_x |v_x|^2 f(x).
inline double ref_expectation(const Vec& v, const TermList& terms) {
  double acc = 0.0;
  for (std::uint64_t x = 0; x < v.size(); ++x)
    acc += std::norm(v[x]) * terms.evaluate(x);
  return acc;
}

/// `count` terms with random masks (any order, the constant included) and
/// non-dyadic random weights, so partial sums round: the input on which a
/// change of summation order shows in the last bits.
inline TermList random_terms(int n, int count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Term> terms;
  for (int k = 0; k < count; ++k)
    terms.push_back({rng.uniform(-1.0, 1.0) / 3.0,
                     rng.next_u64() & (dim_of(n) - 1)});
  return TermList(n, std::move(terms));
}

}  // namespace qokit::testing
