#include "terms/term.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/bitops.hpp"

namespace qokit {

int Term::order() const noexcept { return popcount(mask); }

double Term::evaluate(std::uint64_t x) const noexcept {
  return weight * parity_sign(x, mask);
}

TermList::TermList(int num_qubits, std::vector<Term> terms)
    : num_qubits_(num_qubits), terms_(std::move(terms)) {
  if (num_qubits < 0 || num_qubits > 63)
    throw std::invalid_argument("TermList: num_qubits must be in [0, 63]");
  const std::uint64_t allowed =
      num_qubits == 0 ? 0ull : (dim_of(num_qubits) - 1ull);
  for (const Term& t : terms_)
    if (t.mask & ~allowed)
      throw std::invalid_argument("TermList: term mask exceeds num_qubits");
}

TermList TermList::from_pairs(
    int num_qubits,
    const std::vector<std::pair<double, std::vector<int>>>& pairs) {
  TermList out(num_qubits, {});
  for (const auto& [w, idx] : pairs) out.add(w, std::span<const int>(idx));
  return out;
}

void TermList::add(double weight, std::span<const int> indices) {
  std::uint64_t mask = 0;
  for (int i : indices) {
    if (i < 0 || i >= num_qubits_)
      throw std::out_of_range("TermList::add: index out of range");
    mask ^= 1ull << i;  // repeated spins cancel (s_i^2 = 1)
  }
  terms_.push_back({weight, mask});
}

void TermList::add(double weight, std::initializer_list<int> indices) {
  add(weight, std::span<const int>(indices.begin(), indices.size()));
}

void TermList::add_mask(double weight, std::uint64_t mask) {
  const std::uint64_t allowed =
      num_qubits_ == 0 ? 0ull : (dim_of(num_qubits_) - 1ull);
  if (mask & ~allowed)
    throw std::out_of_range("TermList::add_mask: mask exceeds num_qubits");
  terms_.push_back({weight, mask});
}

TermList& TermList::canonicalize(double tol) {
  std::sort(terms_.begin(), terms_.end(),
            [](const Term& a, const Term& b) { return a.mask < b.mask; });
  std::vector<Term> merged;
  merged.reserve(terms_.size());
  for (const Term& t : terms_) {
    if (!merged.empty() && merged.back().mask == t.mask)
      merged.back().weight += t.weight;
    else
      merged.push_back(t);
  }
  std::erase_if(merged,
                [tol](const Term& t) { return std::abs(t.weight) <= tol; });
  terms_ = std::move(merged);
  return *this;
}

double TermList::evaluate(std::uint64_t x) const noexcept {
  double acc = 0.0;
  for (const Term& t : terms_) acc += t.evaluate(x);
  return acc;
}

double TermList::offset() const noexcept {
  double acc = 0.0;
  for (const Term& t : terms_)
    if (t.mask == 0) acc += t.weight;
  return acc;
}

int TermList::max_order() const noexcept {
  int m = 0;
  for (const Term& t : terms_) m = std::max(m, t.order());
  return m;
}

bool is_flip_symmetric(const TermList& terms) {
  for (const Term& t : terms)
    if (t.mask != 0 && t.order() % 2 != 0) return false;
  return true;
}

double TermList::weight_l1() const noexcept {
  double acc = 0.0;
  for (const Term& t : terms_)
    if (t.mask != 0) acc += std::abs(t.weight);
  return acc;
}

std::string TermList::to_string() const {
  std::ostringstream os;
  for (const Term& t : terms_) {
    os << (t.weight >= 0 ? "+" : "") << t.weight;
    for (int q = 0; q < num_qubits_; ++q)
      if (test_bit(t.mask, q)) os << " s" << q;
    os << " ";
  }
  return os.str();
}

}  // namespace qokit
