// Polynomial cost functions over spins (Eq. 1 of the paper):
//
//     f(s) = sum_k w_k * prod_{i in t_k} s_i,   s_i in {-1, +1}.
//
// A term's variable set t_k is stored as a 64-bit mask, so evaluating a term
// on a basis state x is one AND + popcount: prod s_i = (-1)^{pop(x & mask)}.
// Products of spin variables compose by XOR of masks (s_i^2 = 1), which makes
// polynomial expansion of squared/clause objectives both exact and cheap.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace qokit {

/// One weighted spin monomial w * prod_{i in mask} s_i.
struct Term {
  double weight = 0.0;
  std::uint64_t mask = 0;  ///< bit i set <=> spin i participates

  /// Number of variables in the monomial (its order / locality).
  int order() const noexcept;

  /// Value of the monomial on basis state `x` (bit 0 -> s=+1, bit 1 -> s=-1).
  double evaluate(std::uint64_t x) const noexcept;

  friend bool operator==(const Term&, const Term&) = default;
};

/// The term set T = {(w_k, t_k)} defining a cost polynomial on n spins.
///
/// This is the C++ equivalent of the `terms` constructor argument in QOKit's
/// Python API (Listing 1 of the paper). A term with an empty mask is the
/// constant offset.
class TermList {
 public:
  TermList() = default;

  /// Build from explicit terms. Qubit indices in masks must be < num_qubits.
  TermList(int num_qubits, std::vector<Term> terms);

  /// Build from (weight, {indices...}) pairs, the Listing-1 style input.
  static TermList from_pairs(
      int num_qubits,
      const std::vector<std::pair<double, std::vector<int>>>& pairs);

  /// Add w * prod_{i in indices} s_i. Repeated indices cancel pairwise.
  void add(double weight, std::span<const int> indices);
  void add(double weight, std::initializer_list<int> indices);

  /// Add a term by mask directly (weights accumulate on canonicalize()).
  void add_mask(double weight, std::uint64_t mask);

  /// Merge duplicate masks, drop terms with |w| <= tol, sort by mask.
  /// Returns *this for chaining.
  TermList& canonicalize(double tol = 0.0);

  /// f(x): sum of all term values on basis state `x` (offset included).
  double evaluate(std::uint64_t x) const noexcept;

  /// Sum of weights of empty-mask terms (the constant offset).
  double offset() const noexcept;

  /// Largest monomial order present (0 for an empty/constant polynomial).
  int max_order() const noexcept;

  /// Sum of |w_k| over non-constant terms; upper-bounds |f - offset|.
  double weight_l1() const noexcept;

  int num_qubits() const noexcept { return num_qubits_; }
  std::size_t size() const noexcept { return terms_.size(); }
  bool empty() const noexcept { return terms_.empty(); }
  const Term& operator[](std::size_t k) const noexcept { return terms_[k]; }
  const std::vector<Term>& terms() const noexcept { return terms_; }
  std::vector<Term>::const_iterator begin() const { return terms_.begin(); }
  std::vector<Term>::const_iterator end() const { return terms_.end(); }

  /// Human-readable dump, e.g. "+2 s0 s1 s3 -1.5 s2" (debugging aid).
  std::string to_string() const;

 private:
  int num_qubits_ = 0;
  std::vector<Term> terms_;
};

/// True when every non-constant term has even order, hence f(x) = f(~x)
/// under the global spin flip ~x (MaxCut, LABS and SK qualify; linear
/// terms, as in SAT and portfolio, do not). The precondition of the
/// half-space evolution (DESIGN.md "Half-space evolution").
bool is_flip_symmetric(const TermList& terms);

}  // namespace qokit
